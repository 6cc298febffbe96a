"""Integer polynomial arithmetic.

Polynomials are stored densely, lowest degree first, as IntPolynomial or
as plain lists of integers inside the kernels.  Everything here is exact
and runs on integers: the Sturm chain is a primitive pseudo-remainder
sequence (Knuth, TAOCP vol. 2, 4.6.1), its signs at a rational m/d are
read off integer Horner sums scaled by powers of d, the squarefree test is
the chain's last member, and irreducibility is decided by integer
division (trial factors) and arithmetic mod p.  The only Fractions built
are values at rational points and the Cauchy root bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..errors import IrreducibilityUndecided, NotMonic, NotSquarefree, ReduciblePolynomial


@dataclass(frozen=True)
class IntPolynomial:
    """A polynomial with integer coefficients, lowest degree first."""

    coeffs: tuple

    def __post_init__(self):
        cs = tuple(int(c) for c in self.coeffs)
        # one slice at the last non-zero coefficient (the constant term of
        # the zero polynomial)
        last = next((i for i in range(len(cs) - 1, 0, -1) if cs[i]), 0)
        object.__setattr__(self, "coeffs", cs[: last + 1] or (0,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return self.leading == 1

    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    def evaluate(self, x):
        """The value at x; at a Fraction m/d, d^n p(m/d) is a Horner sum on
        integers, and the one Fraction built is that sum over d^n."""
        if isinstance(x, Fraction):
            m, d = x.numerator, x.denominator
            acc, power = _scaled_horner(self.coeffs, m, d)
            return Fraction(acc, power)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __str__(self) -> str:
        terms = []
        for i in range(self.degree, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                term = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else str(abs(c)) + "*"
                term = f"{mag}x" if i == 1 else f"{mag}x^{i}"
            if not terms:
                terms.append(term if c > 0 else "-" + term)
            else:
                terms.append(("+ " if c > 0 else "- ") + term)
        return " ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Sturm sequences and sign bookkeeping

def _scaled_horner(coeffs, m, d):
    """(d^k p(m/d), d^k) for the coefficients of p, degree k, lowest first:
    a Horner sum on integers, each coefficient scaled by a power of d."""
    acc = 0
    power = 1
    for c in reversed(coeffs):
        acc = acc * m + c * power
        power *= d
    return acc, power // d


def _primitive(p):
    """p divided by its positive content."""
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _neg_prem(a, b):
    """-|lc b|^(deg a - deg b + 1) (a mod b): a positive multiple of the
    negated remainder over Q, on integers, for deg a >= deg b >= 1."""
    rem = list(a)
    db = len(b) - 1
    lead = b[-1]
    steps = len(a) - db
    for shift in range(steps - 1, -1, -1):
        # rem <- lead rem - top x^shift b, which cancels the top coefficient
        top = rem.pop()
        rem = [lead * c for c in rem]
        for i in range(db):
            rem[shift + i] -= top * b[i]
    while len(rem) > 1 and rem[-1] == 0:
        rem.pop()
    # lead^steps has the sign of lead when steps is odd
    return [-c for c in rem] if lead > 0 or steps % 2 == 0 else rem


def sturm_chain(p):
    """Sturm chain of the integer polynomial with trimmed coefficients p,
    lowest first: p, p' and then the negated pseudo-remainders, each
    divided by its positive content.  Every member is a positive rational
    multiple of the classical chain's member over Q, so the signs are the
    same; the last member is gcd(p, p') up to a scalar."""
    chain = [_primitive(list(p))]
    deriv = [i * c for i, c in enumerate(p)][1:]
    if not any(deriv):
        return chain
    chain.append(_primitive(deriv))
    while len(chain[-1]) > 1:
        rem = _neg_prem(chain[-2], chain[-1])
        if not any(rem):
            break
        chain.append(_primitive(rem))
    return chain


def is_squarefree(p: IntPolynomial) -> bool:
    """Whether gcd(p, p'), the last member of the Sturm chain, is constant."""
    return p.degree < 1 or len(sturm_chain(p.coeffs)[-1]) == 1


def sign_variations(values):
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain, a, b):
    """Number of real roots in (a, b] for the squarefree polynomial.

    The sign of a member at m/d is that of the integer d^k c(m/d)."""
    return _variations_at(chain, a) - _variations_at(chain, b)


def _variations_at(chain, x):
    m, d = x.numerator, x.denominator  # an int x reads as x / 1
    return sign_variations([_scaled_horner(c, m, d)[0] for c in chain])


def root_bound(p: IntPolynomial) -> Fraction:
    """Cauchy bound: every real root lies in (-M, M)."""
    lead = abs(p.leading)
    m = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return Fraction(m, lead) + 1


# ---------------------------------------------------------------------------
# irreducibility over Q (monic integer polynomials, desk-scale degrees)

_SMALL_PRIMES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
)


def _mp_trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _mp_mod(p, f, q):
    """Reduce p modulo the monic polynomial f, coefficients mod q."""
    p = _mp_trim([c % q for c in p])
    df = len(f) - 1
    while len(p) - 1 >= df and any(p):
        shift = len(p) - 1 - df
        top = p[-1]
        for i in range(len(f)):
            p[shift + i] = (p[shift + i] - top * f[i]) % q
        _mp_trim(p)
    return p


def _mp_mul(a, b, f, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    return _mp_mod(out, f, q)


def _mp_pow_x(e, f, q):
    """x^e modulo (f, q) by square and multiply."""
    result = [1]
    base = _mp_mod([0, 1], f, q)
    while e:
        if e & 1:
            result = _mp_mul(result, base, f, q)
        base = _mp_mul(base, base, f, q)
        e >>= 1
    return result


def _mp_gcd(a, b, q):
    a = [c % q for c in a]
    b = [c % q for c in b]
    _mp_trim(a)
    _mp_trim(b)
    while any(b):
        inv = pow(b[-1], -1, q)
        b_m = [(c * inv) % q for c in b]
        a = _mp_mod(a, b_m, q)
        a, b = b, a
    if any(a):
        inv = pow(a[-1], -1, q)
        a = [(c * inv) % q for c in a]
    return a


def _factor_degrees_mod_p(poly: IntPolynomial, p: int):
    """Degrees of the irreducible factors of poly mod p, or None if the
    reduction is not squarefree (bad prime)."""
    f = [c % p for c in poly.coeffs]
    if f[-1] % p == 0:
        return None
    deriv = [(i * c) % p for i, c in enumerate(f)][1:] or [0]
    if len(_mp_gcd(list(f), list(deriv), p)) > 1:
        return None
    degrees = []
    work = list(f)
    d = 1
    while len(work) - 1 >= 2 * d:
        xq = _mp_pow_x(p ** d, work, p)
        xq = [(-c) % p for c in xq]
        if len(xq) < 2:
            xq = xq + [0] * (2 - len(xq))
        xq[1] = (xq[1] + 1) % p
        g = _mp_gcd(work, _mp_trim(list(xq)), p)
        if len(g) > 1:
            deg_g = len(g) - 1
            degrees.extend([d] * (deg_g // d))
            quo = _poly_div_mod_p(work, g, p)
            work = quo
        d += 1
    if len(work) > 1:
        degrees.append(len(work) - 1)
    return degrees


def _poly_div_mod_p(a, b, q):
    """Exact quotient a // b mod q, for monic b dividing a."""
    rem = _mp_trim([c % q for c in a])
    quo = [0] * max(1, len(a) - len(b) + 1)
    while len(rem) >= len(b) and any(rem):
        shift = len(rem) - len(b)
        top = rem[-1]
        quo[shift] = top
        for i in range(len(b)):
            rem[shift + i] = (rem[shift + i] - top * b[i]) % q
        _mp_trim(rem)
    return _mp_trim(quo)


# the most candidate factors _trial_factor_search enumerates for one degree,
# and the most trial divisions _divisors makes
_TRIAL_FACTOR_BUDGET = 3_000_000


def _subset_sums(degrees):
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def _divisors(c0: int):
    """The positive divisors of a constant term c0 != 0, ascending, by
    trial division up to sqrt|c0|; raises IrreducibilityUndecided, naming
    |c0|, when that takes more than _TRIAL_FACTOR_BUDGET divisions."""
    n = abs(c0)
    root = math.isqrt(n)
    if root > _TRIAL_FACTOR_BUDGET:
        raise IrreducibilityUndecided(
            f"the divisors of |c0| = {n} need {root} trial divisions, "
            f"more than the budget of {_TRIAL_FACTOR_BUDGET}"
        )
    small, large = [], []
    for k in range(1, root + 1):
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
    return small + large[::-1]


def _divides_monic(q, p):
    """The quotient p / q, lowest first, when the monic integer polynomial
    q divides p, else None: long division on integers (q monic keeps every
    quotient coefficient integral)."""
    rem = list(p)
    dq = len(q) - 1
    quo = []
    for shift in range(len(p) - 1 - dq, -1, -1):
        top = rem.pop()
        quo.append(top)
        if top:
            for i in range(dq):
                rem[shift + i] -= top * q[i]
    return None if any(rem) else quo[::-1]


def _trial_factor_search(poly: IntPolynomial, candidate_degrees):
    """Search for a monic integer factor with degree in candidate_degrees.

    A factor's roots are roots of poly, so the coefficient of x^(d-j) in a
    degree-d factor is bounded by C(d, j) R^j for the Cauchy root bound R;
    the constant term additionally divides poly's constant term.  Returns
    a factor or None; raises IrreducibilityUndecided when the pruned
    search space still exceeds _TRIAL_FACTOR_BUDGET.
    """
    r_bound = root_bound(poly)
    c0 = poly.coeffs[0]
    for d in sorted(candidate_degrees):
        consts = [s * k for k in _divisors(c0) for s in (1, -1)]
        bounds = []
        for j in range(1, d):  # coefficient of x^(d-j), j = 1..d-1
            b = math.comb(d, j) * (r_bound ** j)
            bounds.append(int(b) + 1)
        const_bound = r_bound ** d
        consts = [c for c in consts if abs(c) <= const_bound]
        space = len(consts)
        for b in bounds:
            space *= 2 * b + 1
        if space > _TRIAL_FACTOR_BUDGET:
            raise IrreducibilityUndecided(
                f"factor search for degree {d} needs {space} candidates"
            )
        # enumerate (a_{d-1}, ..., a_1) within bounds and a_0 over divisors
        def rec(idx, partial):
            if idx == 0:
                for c in consts:
                    cand = (c,) + partial + (1,)
                    if _divides_monic(cand, poly.coeffs) is not None:
                        return IntPolynomial(cand)
                return None
            b = bounds[idx - 1]
            for val in range(-b, b + 1):
                hit = rec(idx - 1, (val,) + partial)
                if hit is not None:
                    return hit
            return None

        hit = rec(d - 1, ())
        if hit is not None:
            return hit
    return None


def irreducible_sturm_chain(poly: IntPolynomial) -> list:
    """The Sturm chain of poly, once poly is certified monic, squarefree
    (the chain's last member is constant) and irreducible over Q; raises
    ReduciblePolynomial, NotMonic or NotSquarefree otherwise."""
    if poly.degree < 1:
        raise ReduciblePolynomial("constant polynomial")
    if not poly.is_monic():
        raise NotMonic(f"leading coefficient is {poly.leading}, expected 1")
    chain = sturm_chain(poly.coeffs)
    if len(chain[-1]) > 1:
        raise NotSquarefree(str(poly))
    if poly.degree > 1:
        _assert_no_factor(poly)
    return chain


def assert_irreducible(poly: IntPolynomial) -> None:
    """Raise ReduciblePolynomial, NotMonic or NotSquarefree if poly fails;
    otherwise certify irreducibility over Q."""
    irreducible_sturm_chain(poly)


def _assert_no_factor(poly: IntPolynomial) -> None:
    """Raise ReduciblePolynomial unless the monic squarefree poly, of
    degree >= 2, is irreducible over Q.

    Strategy: rational root check (trial division of the constant term,
    under _TRIAL_FACTOR_BUDGET), then the degree patterns of the
    reductions mod up to six good primes, intersected into the candidate
    factor degrees as each arrives and stopping once none is left,
    falling back to a bounded search for an explicit integer factor.
    """
    n = poly.degree
    # rational roots: for a monic polynomial these are integer divisors of
    # the constant term
    c0 = poly.coeffs[0]
    if c0 == 0:
        raise ReduciblePolynomial(f"{poly} has root 0")
    for k in _divisors(c0):
        for r in (k, -k):
            if poly.evaluate(r) == 0:
                raise ReduciblePolynomial(f"{poly} has rational root {r}")
    if n <= 3:
        return  # no rational root and degree <= 3: irreducible

    # a factor of degree d over Q gives a factor of degree d mod every
    # good prime, so d is a subset sum of every pattern: intersect each
    # pattern in as it arrives (an irreducible one, {0, n}, empties the set)
    candidates = set(range(2, n // 2 + 1))  # degree-1 factors already excluded
    patterns = 0
    for p in _SMALL_PRIMES:
        degs = _factor_degrees_mod_p(poly, p)
        if degs is None:
            continue
        candidates &= _subset_sums(degs)
        if not candidates:
            return
        patterns += 1
        if patterns >= 6:
            break

    factor = _trial_factor_search(poly, candidates)
    if factor is not None:
        raise ReduciblePolynomial(f"{poly} has factor {factor}")


def is_irreducible(poly: IntPolynomial) -> bool:
    try:
        assert_irreducible(poly)
    except (ReduciblePolynomial, NotSquarefree):
        return False
    return True
