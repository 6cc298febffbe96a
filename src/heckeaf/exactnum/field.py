"""Real algebraic number fields with certified embeddings.

A field is Q[x]/(m) for a monic irreducible integer polynomial m.  Elements
are rational coordinate vectors in the power basis 1, x, ..., x^(n-1).
Real embeddings are represented by isolating intervals with rational
endpoints; every numeric question (signs, floors, interval values) is
answered by walking one refinement sequence, enclosures(a, root): the
interval values of a over the root interval and over its successive
refinements to a quarter of the previous width, never by floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from ..errors import DivisionByZero, HeckeafError, NotSquarefree
from .polynomial import (
    IntPolynomial,
    assert_irreducible,
    is_squarefree,
    pdeg,
    pmod,
    pxgcd,
    root_bound,
    sturm_chain,
    sturm_count,
)


@dataclass(frozen=True)
class RealRootInterval:
    """An open interval (lo, hi) isolating a single real root of poly.

    poly changes sign across the interval and has exactly one root inside.
    Refinement returns new intervals; instances are immutable.
    """

    poly: IntPolynomial
    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def refined(self, max_width: Fraction) -> "RealRootInterval":
        """A sub-interval of width < max_width around the same root.

        Bisection on integers: the interval is (a, b) / (d 2^k), with d the
        common denominator of the endpoints, and the sign of poly at a cut
        m / (d 2^k) is the sign of the integer (d 2^k)^n poly(m / (d 2^k)),
        a Horner sum over the coefficients scaled once by powers of d, with
        the powers of 2^k as shifts.  The cuts are the rationals of Fraction
        bisection, (lo + hi) / 2, or lo + (hi - lo) / 3 (d times 3) where
        the midpoint is a root; so the interval returned is the same, and
        its two endpoints are the only Fractions built.
        """
        if max_width <= 0:
            raise ValueError("max_width must be positive")
        lo, hi = self.lo, self.hi
        d = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
        a = lo.numerator * (d // lo.denominator)
        b = hi.numerator * (d // hi.denominator)
        # hi - lo >= max_width  <=>  (b - a) den >= num d 2^k
        num, den = max_width.numerator, max_width.denominator
        if (b - a) * den < num * d:
            return self
        scaled = _scaled_coeffs(self.poly.coeffs, d)
        sign_lo = 1 if _scaled_value(scaled, a, 0) > 0 else -1
        k = 0
        while (b - a) * den >= (num * d) << k:
            mid = a + b  # (lo + hi) / 2 at the scale d 2^(k+1)
            a, b, k = a << 1, b << 1, k + 1
            v = _scaled_value(scaled, mid, k)
            if v == 0:
                # rational root hit exactly; cut at lo + (hi - lo) / 3
                mid, a, b, d = 2 * a + b, 3 * a, 3 * b, 3 * d
                scaled = _scaled_coeffs(self.poly.coeffs, d)
                v = _scaled_value(scaled, mid, k)
                if v == 0:  # pragma: no cover - two exact roots is impossible
                    raise HeckeafError("isolating interval contains two roots")
            if (1 if v > 0 else -1) == sign_lo:
                a = mid
            else:
                b = mid
        return RealRootInterval(self.poly, Fraction(a, d << k), Fraction(b, d << k))

    def __repr__(self) -> str:
        return f"RealRootInterval({self.lo}, {self.hi})"


def _scaled_coeffs(coeffs, d):
    """c_i d^(n-i) for the coefficients c_0..c_n, highest degree first."""
    out = []
    power = 1
    for c in reversed(coeffs):
        out.append(c * power)
        power *= d
    return out


def _scaled_value(scaled, m, k):
    """(d 2^k)^n poly(m / (d 2^k)) from _scaled_coeffs(poly.coeffs, d): an
    integer of the sign of poly at m / (d 2^k)."""
    acc = 0
    shift = 0
    for c in scaled:
        acc = acc * m + (c << shift)
        shift += k
    return acc


def isolate_real_roots(poly: IntPolynomial) -> list:
    """Disjoint isolating intervals for all real roots, ascending.

    Requires a squarefree polynomial; uses Sturm's theorem plus bisection.
    """
    if poly.degree == 0:
        return []
    if not is_squarefree(poly):
        raise NotSquarefree(str(poly))
    chain = sturm_chain(poly.rational_coeffs())
    bound = root_bound(poly)
    lo, hi = -bound, bound

    def endpoints_ok(a, b):
        return poly.evaluate(a) != 0 and poly.evaluate(b) != 0

    if not endpoints_ok(lo, hi):  # pragma: no cover - the root bound is strict
        raise HeckeafError(f"root bound {bound} of {poly} is a root")

    out = []
    stack = [(lo, hi, sturm_count(chain, lo, hi))]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append(RealRootInterval(poly, a, b))
            continue
        mid = (a + b) / 2
        if poly.evaluate(mid) == 0:
            # rational root exactly at the midpoint: shift it to the first
            # non-root of the deg + 1 cuts a + (b - a) j / (2j + 1), j >= 2
            mid = next(m for m in (a + (b - a) * Fraction(j, 2 * j + 1)
                                   for j in range(2, poly.degree + 3))
                       if poly.evaluate(m) != 0)
        cl = sturm_count(chain, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, b, count - cl))
    out.sort(key=lambda r: r.lo)
    return out


class NumberField:
    """Q[x]/(minpoly) for a monic irreducible integer polynomial."""

    def __init__(self, minpoly: IntPolynomial, _checked: bool = False):
        if not _checked:
            assert_irreducible(minpoly)
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self.real_roots = tuple(isolate_real_roots(minpoly))
        # reduction rows: coordinates of x^n .. x^(2n-2)
        n = self.degree
        rows = []
        if n >= 1:
            cur = [-Fraction(c) for c in minpoly.coeffs[:-1]]  # x^n
            rows.append(list(cur))
            for _ in range(n - 2):
                top = cur[-1]
                shifted = [Fraction(0)] + cur[:-1]
                cur = [shifted[t] + top * rows[0][t] for t in range(n)]
                rows.append(list(cur))
        self._power_rows = tuple(tuple(r) for r in rows)
        self.zero = FieldElement(self, (Fraction(0),) * n)
        self.one = FieldElement(self, (Fraction(1),) + (Fraction(0),) * (n - 1))
        if n >= 2:
            self.gen = FieldElement(
                self, (Fraction(0), Fraction(1)) + (Fraction(0),) * (n - 2)
            )
        else:
            # degree 1: the generator is the rational root itself
            self.gen = FieldElement(self, (Fraction(-minpoly.coeffs[0]),))

    def element(self, coords) -> "FieldElement":
        cs = tuple(Fraction(c) for c in coords)
        if len(cs) > self.degree:
            raise ValueError(f"expected at most {self.degree} coordinates")
        cs = cs + (Fraction(0),) * (self.degree - len(cs))
        return FieldElement(self, cs)

    def from_rational(self, q) -> "FieldElement":
        return self.element((Fraction(q),))

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly})"


def make_field(minpoly: IntPolynomial) -> NumberField:
    """Construct the field, verifying monicity and irreducibility."""
    if not isinstance(minpoly, IntPolynomial):
        minpoly = IntPolynomial(tuple(minpoly))
    assert_irreducible(minpoly)
    return NumberField(minpoly, _checked=True)


class FieldElement:
    """An element of a NumberField as power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: NumberField, coords):
        self.field = field
        self.coords = tuple(coords)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self.coords[0]

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        n = self.field.degree
        prod = [Fraction(0)] * (2 * n - 1) if n > 1 else [Fraction(0)]
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(o.coords):
                prod[i + j] += a * b
        out = list(prod[:n]) + [Fraction(0)] * (n - len(prod[:n]))
        for k in range(n, len(prod)):
            c = prod[k]
            if c == 0:
                continue
            row = self.field._power_rows[k - n]
            for t in range(n):
                out[t] += c * row[t]
        return FieldElement(self.field, tuple(out))

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        a = list(self.coords)
        m = self.field.minpoly.rational_coeffs()
        g, s, _ = pxgcd(a, m)
        if pdeg(g) != 0:  # pragma: no cover - minpoly is irreducible
            raise HeckeafError("element not invertible modulo an irreducible polynomial")
        inv = [c / g[0] for c in s]
        inv = pmod(inv, m)
        return self.field.element(inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coords[0] == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.coords == other.coords

    def __hash__(self):
        return hash((self.field.minpoly, self.coords))

    def __repr__(self):
        return f"FieldElement{self.coords}"

    # -- invariants of the element ------------------------------------------

    def mult_matrix(self):
        """Rows i: coordinates of x^i * self (the regular representation)."""
        rows = []
        cur = self
        g = self.field.gen
        for _ in range(self.field.degree):
            rows.append(cur.coords)
            cur = cur * g
        return rows

    def norm(self) -> Fraction:
        return _det_fraction(self.mult_matrix())

    def trace(self) -> Fraction:
        rows = self.mult_matrix()
        return sum(rows[i][i] for i in range(len(rows)))

    def min_poly(self) -> IntPolynomial:
        """Minimal polynomial over Q (monic; integer when the element is
        an algebraic integer, which all callers here guarantee)."""
        n = self.field.degree
        # find the first linear dependency among 1, a, a^2, ...
        powers = [self.field.one]
        for _ in range(n):
            powers.append(powers[-1] * self)
        for d in range(1, n + 1):
            rows = [list(powers[k].coords) for k in range(d)]
            rhs = list(powers[d].coords)
            sol = _solve_rational(rows, rhs)
            if sol is not None:
                coeffs = [-c for c in sol] + [Fraction(1)]
                if all(c.denominator == 1 for c in coeffs):
                    return IntPolynomial(tuple(int(c) for c in coeffs))
                raise ValueError(f"element {self} is not an algebraic integer")
        raise HeckeafError("no dependency found up to the field degree")

    def degree_over_q(self) -> int:
        n = self.field.degree
        powers = [self.field.one]
        for _ in range(n):
            powers.append(powers[-1] * self)
        for d in range(1, n + 1):
            rows = [list(powers[k].coords) for k in range(d)]
            rhs = list(powers[d].coords)
            if _solve_rational(rows, rhs) is not None:
                return d
        return n


# ---------------------------------------------------------------------------
# embeddings: interval evaluation, signs, floors

def enclosures(a: FieldElement, root: RealRootInterval):
    """Rational intervals certifiably containing sigma(a), without end: the
    interval value of a over root, then over root refined to a quarter of
    its width, and so on.  The intervals are nested and shrink to sigma(a),
    so a walk over them settles any strict inequality between sigma(a) and
    a rational, or another such walk, once the two differ."""
    iv = root
    while True:
        yield _interval_horner(a.coords, iv.lo, iv.hi)
        iv = iv.refined(iv.width / 4)


def eval_embedding(a: FieldElement, root: RealRootInterval, eps) -> tuple:
    """The first of enclosures(a, root) of width < eps."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a.is_rational():
        v = a.coords[0]
        return (v, v)
    return next((lo, hi) for lo, hi in enclosures(a, root) if hi - lo < eps)


def _interval_horner(coords, lo, hi):
    """Evaluate sum coords[i] * t^i over t in [lo, hi], exactly."""
    cur_lo, cur_hi = Fraction(0), Fraction(0)
    for c in reversed(coords):
        cands = (cur_lo * lo, cur_lo * hi, cur_hi * lo, cur_hi * hi)
        cur_lo, cur_hi = min(cands) + c, max(cands) + c
    return cur_lo, cur_hi


def sign_at(a: FieldElement, root: RealRootInterval) -> int:
    """Exact sign of sigma(a): symbolic zero test first, then intervals."""
    if a.is_zero():
        return 0
    for lo, hi in enclosures(a, root):
        if lo > 0:
            return 1
        if hi < 0:
            return -1


def exact_floor(a: FieldElement, root: RealRootInterval) -> int:
    """The unique k with k <= sigma(a) < k+1."""
    if a.is_rational():
        v = a.coords[0]
        return v.numerator // v.denominator
    # irrational image: both endpoints eventually share a floor, and the
    # image itself is never an integer, so that floor is the answer
    for lo, hi in enclosures(a, root):
        if lo.numerator // lo.denominator == hi.numerator // hi.denominator:
            return lo.numerator // lo.denominator


# ---------------------------------------------------------------------------
# small exact linear algebra over Q

def _det_fraction(rows) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != 0:
                piv = r
                break
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, n):
            if m[r][col] == 0:
                continue
            f = m[r][col] * inv
            for c in range(col, n):
                m[r][c] -= f * m[col][c]
    return det


def _solve_rational(rows, rhs):
    """Solve x * rows = rhs for a row vector x over Q; None if inconsistent.

    rows is a list of k row vectors (length n), rhs a length-n vector.
    """
    k = len(rows)
    n = len(rhs)
    # transpose to solve rows^T * x^T = rhs^T column-wise
    aug = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(n)]
    piv_cols = []
    r = 0
    for c in range(k):
        piv = None
        for rr in range(r, n):
            if aug[rr][c] != 0:
                piv = rr
                break
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = Fraction(1) / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for rr in range(n):
            if rr != r and aug[rr][c] != 0:
                f = aug[rr][c]
                aug[rr] = [v - f * w for v, w in zip(aug[rr], aug[r])]
        piv_cols.append(c)
        r += 1
    # consistency
    for rr in range(r, n):
        if aug[rr][k] != 0:
            return None
    x = [Fraction(0)] * k
    for row_idx, c in enumerate(piv_cols):
        x[c] = aug[row_idx][k]
    return x
