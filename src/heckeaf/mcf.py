"""Continued fraction engines.

Covers the Euclidean algorithm, regular continued fractions, the
multidimensional Jacobi-Perron algorithm in block matrix form with exact
periodicity detection, the Bauer factorization of a non-negative
unimodular matrix into blocks, and the periodic fraction attached to such
a matrix through its Perron eigenvector.

Conventions.  A state is a vector theta = (theta_1, ..., theta_{n-1}) of
field elements evaluated at a fixed real embedding.  One step emits the
digit d with d_j = floor(theta_j) and moves to the state

    theta'_{n-1} = 1 / (theta_1 - d_1)
    theta'_{j-1} = (theta_j - d_j) / (theta_1 - d_1)     (2 <= j <= n-1)

which is the unique convention making (1, theta)^T proportional to
B(d) * (1, theta')^T for the non-negative block

    B(d) = [ 0      1 ]
           [ I_n-1  d ]    (first row (0,...,0,1), last column tail d).

Expansions step integer states W over a basis g (v = W g, theta_j =
v_j / v_0).  Cycle detection compares fingerprints, then the integer
states exactly, so periodicity is literal state repetition and can never
be a floating point artifact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import (
    DegenerateSpectrum,
    NotFactorizable,
    ReducibleCharPoly,
    ReduciblePolynomial,
    RoundTripMismatch,
)
from .exactnum.field import (
    FieldElement,
    NumberField,
    RealRootInterval,
    _floor_log2,
    enclosures,
    exact_floor,
    make_field,
    sign_at,
)
from .exactnum.intmat import charpoly, mat_det, mat_identity, mat_is_nonnegative, mat_mul, is_primitive
from .exactnum.polynomial import IntPolynomial, assert_irreducible

DEFAULT_MAX_STEPS = 10_000


@dataclass(frozen=True)
class JpaExpansion:
    """Digits of an expansion split into preperiod and period.

    period == () with terminated == True means the expansion reached a
    rational direction and stopped; period == () with terminated == False
    means the step budget ran out before a state repeated (a legitimate
    outcome: the algorithm may diverge for some inputs).
    """

    dim: int
    preperiod: tuple
    period: tuple
    terminated: bool

    @property
    def digits(self) -> tuple:
        return self.preperiod + self.period

    def is_periodic(self) -> bool:
        return len(self.period) > 0

    def is_purely_periodic(self) -> bool:
        return self.is_periodic() and not self.preperiod


def euclid_gcd(a1: int, a2: int):
    """GCD with the ladder of quotients, for a1 >= a2 >= 1."""
    if not (a1 >= a2 >= 1):
        raise ValueError("require a1 >= a2 >= 1")
    quotients = []
    x, y = a1, a2
    while True:
        q, r = divmod(x, y)
        quotients.append(q)
        if r == 0:
            return y, quotients
        x, y = y, r


# ---------------------------------------------------------------------------
# blocks and block products

def jpa_block(digit, n: int | None = None):
    """The block matrix B(d) for one digit vector."""
    d = tuple(int(b) for b in digit)
    if n is None:
        n = len(d) + 1
    if len(d) != n - 1:
        raise ValueError(f"digit of length {len(d)} does not fit size {n}")
    if any(b < 0 for b in d):
        raise ValueError("digits must be non-negative")
    rows = [tuple([0] * (n - 1)) + (1,)]
    for i in range(1, n):
        row = [0] * n
        row[i - 1] = 1
        row[n - 1] += d[i - 1]
        rows.append(tuple(row))
    return tuple(rows)


def convergent_matrix(digits, n: int | None = None):
    """Product B(d_1) ... B(d_k); empty products need an explicit size."""
    digits = list(digits)
    if n is None:
        if not digits:
            raise ValueError("empty digit list needs an explicit size n")
        n = len(digits[0]) + 1
    acc = mat_identity(n)
    for d in digits:
        acc = mat_mul(acc, jpa_block(d, n))
    return acc


# ---------------------------------------------------------------------------
# the step map and expansions

def jpa_step(theta, root: RealRootInterval):
    """One step: returns (digit, next_state) with next_state None when the
    leading coordinate was exactly rational-exhausted."""
    digit = tuple(exact_floor(t, root) for t in theta)
    x = theta[0] - digit[0]
    if x.is_zero():
        return digit, None
    inv = x.inverse()
    k = len(theta)
    nxt = [None] * k
    nxt[k - 1] = inv
    for i in range(k - 1):
        nxt[i] = (theta[i + 1] - digit[i + 1]) * inv
    return digit, tuple(nxt)


# fractional bits of the repeat fingerprint floor(2^bits * theta_j)
_FINGERPRINT_BITS = 64


def _combination(row, basis, field) -> FieldElement:
    """sum_k row_k basis_k for integer coefficients, summed on numerators
    over the basis' common denominator."""
    den = lcm(*(g.den for g in basis))
    acc = [0] * field.degree
    for coef, g in zip(row, basis):
        if coef:
            scale = coef * (den // g.den)
            acc = [x + scale * c for x, c in zip(acc, g.num)]
    return field.from_integers(acc, den)


def _floor_pair(lo, hi, lo0, hi0, bits):
    """(f, same): f = floor(2^bits x / y) at the top end of x / y for x in
    [lo, hi] and y in [lo0, hi0], lo0 > 0, and whether the bottom end
    lo / y (y = hi0 if lo >= 0 else lo0) has the same floor.  That is
    f y <= 2^bits lo < (f + 1) y, one product and a remainder test in
    place of a second division."""
    floor_hi = (hi << bits) // (lo0 if hi >= 0 else hi0)
    y = hi0 if lo >= 0 else lo0
    return floor_hi, 0 <= (lo << bits) - floor_hi * y < y


class _BasisEnclosure:
    """Integer enclosures a_k <= 2^p sigma(g_k) <= b_k of a basis g of
    field elements at one real embedding, sharpened on demand.
    ratio_floors encloses every row of a state v = W g from them and
    leaves those enclosures [lo_j, hi_j] of 2^p sigma(v_j) in two new
    integer lists `lo` and `hi`, which the expansion then owns and steps
    in place.

    The enclosures are read off the root's refinement ladder
    (field._level), which a sharpening extends where it needs deeper
    levels.  Those levels stay with the root for every later question at
    it, among them the next expansion at the same root; a level is the
    same interval whichever coarser level it was refined from, so what a
    sharpening adds is what any other question would have made there.
    """

    def __init__(self, basis, root: RealRootInterval, prec: int):
        self._basis = basis
        self._root = root
        self.lo = self.hi = None
        self._sharpen(prec)

    def _sharpen(self, prec: int) -> None:
        """Bounds at precision prec, from the first enclosure (lo, hi,
        scale) of each basis element narrower than 2^-prec, floored and
        ceiled on integers: a_k = floor(2^p lo / scale).  Each walk starts
        at the first ladder level narrower than 2^-(prec+8), whose
        enclosure is usually narrow enough, so no coarser level is
        evaluated: level j has width w / 8^j for the root's width w, so
        with 2^t <= w < 2^(t+1) that is the least j with 3j > t + prec + 8."""
        width = self._root.width
        start = max(0, (_floor_log2(width.numerator, width.denominator) + prec + 8) // 3 + 1)
        bounds = []
        for g in self._basis:
            for lo, hi, scale in enclosures(g, self._root, start):
                if (hi - lo) << prec < scale:
                    break
            bounds.append(((lo << prec) // scale, -((-hi << prec) // scale)))
        self._prec = prec
        self._bounds = bounds

    def _enclose(self, row):
        """[lo, hi] with lo <= 2^p sigma(sum_k row_k g_k) <= hi."""
        lo = hi = 0
        for c, (a, b) in zip(row, self._bounds):
            if c > 0:
                lo += c * a
                hi += c * b
            elif c < 0:
                lo += c * b
                hi += c * a
        return lo, hi

    def _is_zero(self, row) -> bool:
        return _combination(row, self._basis, self._basis[0].field).is_zero()

    def _ratio_floors(self, w, bits, lo0, hi0):
        key = []
        los, his = [lo0], [hi0]
        for row in w[1:]:
            lo, hi = self._enclose(row)
            # the ratio lies in [lo, hi] / [lo0, hi0] with a positive divisor
            floor_hi, same = _floor_pair(lo, hi, lo0, hi0, bits)
            # a rational ratio may sit on a boundary: 2^bits v_j = floor_hi v_0
            if not same and not self._is_zero(
                    [(x << bits) - floor_hi * y for x, y in zip(row, w[0])]):
                return None
            key.append(floor_hi)
            los.append(lo)
            his.append(hi)
        self.lo, self.hi = los, his
        return tuple(key)

    def ratio_floors(self, w, bits: int):
        """floor(2^bits sigma(v_j) / sigma(v_0)) for j = 1..n-1, where
        v = W g; None when v_0 = 0, ValueError when sigma(v_0) < 0.  Irrational
        ratios are settled by sharper enclosures, v_0 = 0 and ratios on a
        boundary by an exact test once the enclosures fail to separate.

        Every row is enclosed from the basis bounds at the current
        precision, then tested exactly, then sharpened, and the rows
        enclosed last are left in `lo` and `hi`.
        """
        while True:
            lo0, hi0 = self._enclose(w[0])
            if lo0 > 0:
                key = self._ratio_floors(w, bits, lo0, hi0)
                if key is not None:
                    return key
            elif hi0 < 0:
                raise ValueError("the expansion needs a positive leading coordinate")
            elif self._is_zero(w[0]):
                return None
            self._sharpen(2 * self._prec)


def _same_direction(w_a, w_b, basis, field) -> bool:
    """Whether the states v = W_a g and u = W_b g have equal ratios theta,
    by the exact cross products v_j u_0 == u_j v_0 (no field division)."""
    v = [_combination(row, basis, field) for row in w_a]
    u = [_combination(row, basis, field) for row in w_b]
    return all(v[j] * u[0] == u[j] * v[0] for j in range(1, len(v)))


def _expand_states(basis, root: RealRootInterval, w, max_states: int):
    """Expand theta_j = v_j / v_0 for v = W g, sigma(v_0) > 0 and the
    other sigma(v_j) >= 0, checking states 0..max_states-1 for a repeat.
    A step with digit d is the row operation W'_{j-1} = W_j - d_j W_0,
    W'_{n-1} = W_0, which keeps v = B(d) v' exactly; a row whose digit is
    0 is kept as it is.

    Returns (digits, states, start, terminated): the digits and integer
    states stepped, the index of the state the next one repeats (None if
    none does), and whether v_0 reached 0.  The digit is the fingerprint
    floor(2^F theta_j), F = _FINGERPRINT_BITS, shifted right by F bits;
    a fingerprint hit counts as a repeat only after _same_direction, so
    the repeat is the first literal repeat of the field-state expansion.
    Each fingerprint is looked up once: its list of earlier states is
    both tested and, if none repeats, extended.

    The row enclosures lo_j <= 2^p sigma(v_j) <= hi_j are carried through
    each step as two integer lists, lo and hi, in the row order of W:
    with d_j >= 0, v'_{j-1} lies in [lo_j - d_j hi_0, hi_j - d_j lo_0].
    One pass over the rows reads each digit off its fingerprint and, where
    the digit is non-zero, updates the row of W, lo_j and hi_j together;
    row 0 of all three then moves to the end.  The fingerprints come from
    the carried enclosures when those separate, and from the enclosure's
    ratio_floors, which encloses every row again from the basis bounds
    and hands over new lo and hi lists, only when they do not.  The
    outcome, down to the precisions sharpened to, is the one enclosing
    every row at every state gives: the bounds change only at a
    sharpening, after which every row is enclosed again, so a carried
    enclosure is interval arithmetic of the same integer row over the same
    bounds and, by the triangle inequality, contains the one ratio_floors
    would give.  When the carried rows separate, the enclosed ones would
    too, with the same floors and no exact test or sharpening.
    """
    field = basis[0].field
    n = len(basis)
    bits = _FINGERPRINT_BITS
    enclosure = _BasisEnclosure(basis, root, bits + 32)
    lo = hi = None  # the carried row enclosures of the current state
    seen = {}
    states = []
    digits = []
    for step in range(max_states):
        key = None
        if lo is not None and lo[0] > 0:
            lo0, hi0 = lo[0], hi[0]
            floors = []
            for j in range(1, n):
                # _floor_pair, inline
                lo_j, hi_j = lo[j], hi[j]
                floor_hi = (hi_j << bits) // (lo0 if hi_j >= 0 else hi0)
                y = hi0 if lo_j >= 0 else lo0
                if not 0 <= (lo_j << bits) - floor_hi * y < y:
                    break
                floors.append(floor_hi)
            else:
                key = tuple(floors)
        if key is None:
            key = enclosure.ratio_floors(w, bits)
            if key is None:
                return digits, states, None, True
            lo, hi = enclosure.lo, enclosure.hi
        earlier = seen.setdefault(key, [])
        for start in earlier:
            if _same_direction(states[start], w, basis, field):
                return digits, states, start, False
        if step == max_states - 1:
            break
        earlier.append(step)
        states.append(w)
        w0 = w[0]
        lo0, hi0 = lo[0], hi[0]
        digit = []
        rows = []
        for j, f in enumerate(key, 1):
            d = f >> bits
            digit.append(d)
            row = w[j]
            if d:
                row = tuple([x - d * y for x, y in zip(row, w0)])
                lo[j] -= d * hi0
                hi[j] -= d * lo0
            rows.append(row)
        digits.append(tuple(digit))
        rows.append(w0)
        w = tuple(rows)
        del lo[0], hi[0]
        lo.append(lo0)
        hi.append(hi0)
    return digits, states, None, False


def jpa_expand(theta, root: RealRootInterval, max_steps: int = DEFAULT_MAX_STEPS) -> JpaExpansion:
    """Expand theta, detecting exact periodicity by state repetition: the
    states are integer matrices over the basis (1, theta_1, ...), from the
    identity, and states 0..max_steps are checked for a repeat."""
    theta = tuple(theta)
    if not theta:
        return JpaExpansion(dim=1, preperiod=(), period=(), terminated=True)
    n = len(theta) + 1
    for t in theta:
        if sign_at(t, root) <= 0:
            raise ValueError("jpa_expand needs strictly positive coordinates")
    basis = (theta[0].field.one,) + theta
    digits, _, start, terminated = _expand_states(basis, root, mat_identity(n), max_steps + 1)
    if start is None:
        return JpaExpansion(n, tuple(digits), (), terminated)
    return JpaExpansion(n, tuple(digits[:start]), tuple(digits[start:]), False)


def regular_cf(x, root: RealRootInterval | None = None,
               max_terms: int = DEFAULT_MAX_STEPS) -> JpaExpansion:
    """Regular continued fraction as the n = 2 case.

    Accepts an exact rational (Fraction or int) or a FieldElement with its
    embedding.  Rational inputs terminate with the Euclidean quotients of
    numerator and denominator, after a 0 when x < 1, cut to max_terms.
    """
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(x, Fraction):
        if x <= 0:
            raise ValueError("regular_cf needs a positive value")
        p, q = x.numerator, x.denominator
        quotients = euclid_gcd(p, q)[1] if p >= q else [0] + euclid_gcd(q, p)[1]
        digits = tuple((a,) for a in quotients[:max_terms])
        return JpaExpansion(2, digits, (), len(quotients) <= max_terms)
    if not isinstance(x, FieldElement):
        raise TypeError(f"cannot expand {type(x).__name__}")
    if x.is_rational():
        return regular_cf(x.as_rational(), max_terms=max_terms)
    if root is None:
        raise ValueError("field elements need an embedding")
    return jpa_expand((x,), root, max_steps=max_terms)


def convergents_from_digits(digits):
    """(p_k, q_k) pairs for a regular continued fraction digit list."""
    out = []
    p_prev, p = 1, None
    q_prev, q = 0, None
    for (a,) in digits:
        if p is None:
            p, q = a, 1
        else:
            p, p_prev = a * p + p_prev, p
            q, q_prev = a * q + q_prev, q
        out.append((p, q))
    return out


# ---------------------------------------------------------------------------
# Bauer factorization

def bauer_factorize(a):
    """Unique block factorization of a non-negative unimodular matrix.

    Peel rule: with r = row_0(A), the right factor A2 has last row r and
    row i-1 equal to row_i(A) - b_i * r, where each b_i is the largest
    non-negative integer keeping that row non-negative.  Recurse until the
    identity remains; a repeated intermediate matrix means the rule stalls
    and the matrix admits no such factorization.  Each peel writes the
    current matrix as B(d) times the next, so the blocks multiply back to A,
    and the next one has determinant +-1, so its top row is not zero.
    """
    a = tuple(tuple(int(x) for x in row) for row in a)
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix must be square")
    if not mat_is_nonnegative(a):
        raise ValueError("matrix must be entrywise non-negative")
    if mat_det(a) not in (1, -1):
        raise ValueError("matrix must have determinant +1 or -1")
    ident = mat_identity(n)
    if a == ident:
        raise ValueError("identity matrix has the empty factorization")
    digits = []
    seen = {a}
    cur = a
    while cur != ident:
        top = cur[0]
        digit = []
        new_rows = []
        for row in cur[1:]:
            b = min(x // t for x, t in zip(row, top) if t > 0)
            digit.append(b)
            new_rows.append(tuple(r - b * t for r, t in zip(row, top)))
        new_rows.append(top)
        digits.append(tuple(digit))
        cur = tuple(new_rows)
        if cur in seen:
            raise NotFactorizable(
                f"peel rule stalled after {len(digits)} digits", partial=digits
            )
        seen.add(cur)
    return digits


# ---------------------------------------------------------------------------
# the periodic fraction attached to a matrix

def perron_embedding(field: NumberField) -> RealRootInterval:
    """The embedding at the largest real root (the Perron root for the
    fields built from primitive non-negative matrices)."""
    if not field.real_roots:
        raise DegenerateSpectrum("field has no real embedding")
    return field.real_roots[-1]


def _perron_matrix(a):
    """A as a tuple of integer rows and its characteristic polynomial, once
    A is checked entrywise non-negative and of determinant +-1 (else
    ValueError), and neither the identity nor imprimitive (else
    DegenerateSpectrum)."""
    a = tuple(tuple(int(x) for x in row) for row in a)
    if not mat_is_nonnegative(a):
        raise ValueError("matrix must be entrywise non-negative")
    if mat_det(a) not in (1, -1):
        raise ValueError("matrix must have determinant +1 or -1")
    if a == mat_identity(len(a)):
        raise DegenerateSpectrum("identity matrix has no expanding eigenvector")
    if not is_primitive(a):
        raise DegenerateSpectrum("matrix is not primitive; Perron root may be non-simple")
    return a, charpoly(a)


def perron_charpoly(a) -> IntPolynomial:
    """The characteristic polynomial of satz12_eigenvector's matrix A,
    the minimal polynomial of its field, with the same checks and errors
    (ReducibleCharPoly when it is reducible), certified irreducible with
    no field built: no root isolation, adjugate or inverse."""
    a, cp = _perron_matrix(a)
    try:
        assert_irreducible(cp)
    except ReduciblePolynomial as exc:
        raise ReducibleCharPoly(f"char poly {cp} is reducible: {exc}") from exc
    return cp


def satz12_eigenvector(a):
    """Exact Perron eigenvector data of a non-negative unimodular matrix.

    Returns (u, lam): u is the image of x in Q[x]/(char A) at the dominant
    embedding, lam an exact eigenvector with lam_1 = 1, positive at that
    embedding, satisfying A lam = u lam symbolically.

    lam is column 0 of adj(uI - A), scaled.  With char A = sum c_k x^k,
    the adjugate is sum u^k B_k with B_(n-1) = I and B_(k-1) = A B_k + c_k I,
    as (xI - A) adj(xI - A) = char A (x) I; so its column 0 is
    sum u^k b_k, with b_(n-1) = e_0 and b_(k-1) = A b_k + c_k e_0, integer
    vectors.  Coordinate j is the field element with power-basis
    numerators b_0[j], ..., b_(n-1)[j]; coordinate 0 has b_(n-1)[0] = 1,
    so it is not zero, and one inverse scales it to 1.  A lam = u lam as
    (uI - A) adj(uI - A) = char A (u) I = 0.  lam > 0: the Perron root rho of
    the primitive A is simple, with eigenvectors v, w > 0 (right, left), and
    adj(rho I - A) = char A'(rho) v w^T / (w^T v) with char A'(rho) > 0, so
    column 0 is a positive multiple of v.
    """
    a, cp = _perron_matrix(a)
    n = len(a)
    try:
        field = make_field(cp)
    except ReduciblePolynomial as exc:
        raise ReducibleCharPoly(f"char poly {cp} is reducible: {exc}") from exc

    b = [1] + [0] * (n - 1)
    bs = [b]  # b_(n-1), ..., b_0
    for c in reversed(cp.coeffs[1:n]):
        b = [sum(x * y for x, y in zip(row, b)) for row in a]
        b[0] += c
        bs.append(b)
    adj = [field.from_integers([bk[j] for bk in reversed(bs)]) for j in range(n)]
    inv = adj[0].inverse()
    return field.gen, tuple(v * inv for v in adj)


@dataclass(frozen=True)
class RoundTrip:
    """What the round trip of a non-negative unimodular matrix A found:
    its Bauer digits, Perron value u and eigenvector lam (lam_0 = 1) and the
    expansion of lam's ratios, purely periodic with the digits' shortest period."""

    digits: tuple
    perron_value: FieldElement
    eigenvector: tuple
    expansion: JpaExpansion


def check_period(digits, u: FieldElement, lam, root: RealRootInterval) -> RoundTrip:
    """Check that A's Perron vector lam, lam_0 = 1, expands with A's digits D.

    With j the shortest period of D, theta = lam[1:] is the Perron
    direction of C(D[:j]), as A = C(D) = C(D[:j])^(k/j).  If its first j
    digits are D[:j], the state is back at theta, and the expansion is D[:j]
    repeated, with no earlier repeat (Perron 1907, Satz XII).  No step
    terminates, as theta is irrational.  So j steps at root of the
    expansion of lam over itself, from W = I, decide it: any other outcome
    raises RoundTripMismatch, as D is not the canonical expansion of A's
    Perron vector.
    """
    k = len(digits)
    period = next(digits[:j] for j in range(1, k + 1)
                  if k % j == 0 and digits[:j] * (k // j) == digits)
    found, _, start, _ = _expand_states(lam, root, mat_identity(len(lam)), len(period) + 1)
    if start != 0 or tuple(found) != period:
        raise RoundTripMismatch(f"the Perron vector's digits {tuple(found)} do not return to it "
                                f"as the period {period} of the factorization {digits}")
    return RoundTrip(digits, u, lam, JpaExpansion(len(lam), (), period, False))


def roundtrip_record(a) -> RoundTrip:
    """check_period for a bare matrix A, with satz12_eigenvector's Perron
    data in Q[x]/(char A)."""
    digits = tuple(bauer_factorize(a))
    u, lam = satz12_eigenvector(a)
    return check_period(digits, u, lam, perron_embedding(u.field))


def periodicity_roundtrip(a) -> JpaExpansion:
    """The expansion of roundtrip_record(a)."""
    return roundtrip_record(a).expansion
