"""Real algebraic number fields with certified embeddings.

A field is Q[x]/(m) for a monic irreducible integer polynomial m.  An
element is an integer numerator vector over one positive denominator in
the power basis 1, x, ..., x^(n-1), in lowest terms (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, 4.2): sums and products
are integer operations normalized once, and the inverse, norm and trace
come from the integer multiplication matrix.  Real embeddings are
represented by isolating intervals with rational endpoints; every
numeric question is answered on one ladder of enclosures,
enclosures(a, root): the interval values of a over the root interval and
over its successive refinements to a quarter of the previous width, each
an interval Horner sum on integers scaled by the endpoints' common
denominator, never by floating point.  Signs and floors walk the ladder
until an enclosure settles them; an interval value of width < eps
(eval_embedding) jumps to the first level that narrow, by one refinement
a probe from the deepest level known too wide.  A root interval is
refined by bisection on integers, with Newton jumps over many halvings at
once; a jump is taken only when two signs certify that it lands on the
interval bisection would return (RealRootInterval.refined).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from ..errors import DivisionByZero, HeckeafError, NotSquarefree
from .intmat import kernel_basis, mat_det
from .polynomial import IntPolynomial, irreducible_sturm_chain, root_bound, sturm_chain, sturm_count


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

        Newton jumps skip halvings (Abbott's quadratic interval refinement,
        2006).  With s halvings still due and no cut a root, bisection ends
        on the one of the 2^s equal cells of the interval that holds the
        root.  A Newton step from the midpoint, with poly' as one more
        scaled Horner sum, names a cell; if poly has the sign of poly(lo)
        at the cell's left end and the opposite sign at its right end, the
        root lies strictly inside the cell, so no skipped cut equals it and
        the cell is bisection's.  It is taken at once (or its left or right
        neighbour, tested the same way), and the next jump may be twice as
        long; a cell that fails costs one plain halving and halves the next
        jump.  Refinements by fewer than _MIN_JUMP halvings stay plain
        bisection, and so does the rest of one that meets a sign 0 at a cut
        or cell end: a rational root, which the thirds step moves off.
        """
        if max_width <= 0:
            raise ValueError("max_width must be positive")
        lo, hi = self.lo, self.hi
        d = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
        a = lo.numerator * (d // lo.denominator)
        b = hi.numerator * (d // hi.denominator)
        # hi - lo >= max_width  <=>  (b - a) den >= num d 2^k; until a cut
        # hits a root, the loop halves the width `steps` times, the least
        # steps with (b - a) den < num d 2^steps
        num, den = max_width.numerator, max_width.denominator
        over, unit = (b - a) * den, num * d
        steps = max(0, over.bit_length() - unit.bit_length())
        steps += (unit << steps) <= over
        if not steps:
            return self
        scaled = _scaled_coeffs(self.poly.coeffs, d)
        sign_lo = 1 if _scaled_value(scaled, a, 0) > 0 else -1
        k = 0
        jump = steps  # bits of the next Newton jump; 0 once a cut is a root
        while (b - a) * den >= (num * d) << k:
            mid = a + b  # (lo + hi) / 2 at the scale d 2^(k+1)
            v = _scaled_value(scaled, mid, k + 1)
            s = min(jump, steps - k)
            if v and s >= _MIN_JUMP:
                width = b - a
                # Newton from mid lands at (mid - v / q) / (d 2^(k+1)), q the
                # scaled p'(mid); j is the cell of the 2^s cells of width
                # width / (d 2^(k+s)) that holds it
                n = len(scaled) - 1
                q = _scaled_value([(n - i) * c for i, c in enumerate(scaled[:-1])], mid, k + 1)
                j = (1 << (s - 1)) + ((-v) << (s - 1)) // (width * q) if q else -1
                if 0 <= j < 1 << s:
                    left = (a << s) + j * width
                    u = sign_lo * _scaled_value(scaled, left, k + s)
                    w = sign_lo * _scaled_value(scaled, left + width, k + s)
                    # a neighbour past lo or hi only where poly(lo) and
                    # poly(hi) have one sign: no isolating interval
                    if u > 0 and w > 0 and j + 1 < 1 << s:
                        left, u = left + width, w
                        w = sign_lo * _scaled_value(scaled, left + width, k + s)
                    elif u < 0 and w < 0 and j > 0:
                        left, w = left - width, u
                        u = sign_lo * _scaled_value(scaled, left, k + s)
                    if u > 0 > w:
                        a, b, k, jump = left, left + width, k + s, 2 * s
                        continue
                    if u == 0 or w == 0:
                        jump = 0
                if jump:
                    jump = max(s // 2, _MIN_JUMP)
            a, b, k = a << 1, b << 1, k + 1
            if v == 0:
                # rational root hit exactly; cut at lo + (hi - lo) / 3
                jump = 0
                mid, a, b, d = 2 * a + b, 3 * a, 3 * b, 3 * d
                scaled = _scaled_coeffs(self.poly.coeffs, d)
                v = _scaled_value(scaled, mid, k)
                if v == 0:  # an interval built by hand may hold two roots
                    raise HeckeafError("isolating interval contains two roots")
            if (1 if v > 0 else -1) == sign_lo:
                a = mid
            else:
                b = mid
        return RealRootInterval(self.poly, Fraction(a, d << k), Fraction(b, d << k))

    def __repr__(self) -> str:
        return f"RealRootInterval({self.lo}, {self.hi})"


# a jump costs poly' and two or three cell ends beside the midpoint, so it
# pays from four halvings on; the quarter-width steps of enclosures take three
_MIN_JUMP = 4


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
    The integer Sturm chain (sturm_chain) ends in gcd(p, p') up to a
    scalar, so it also decides squarefreeness, and its signs at each cut
    are integer Horner sums.
    """
    if poly.degree == 0:
        return []
    chain = sturm_chain(poly.coeffs)
    if len(chain[-1]) > 1:
        raise NotSquarefree(str(poly))
    return _isolate(poly, chain)


def _isolate(poly: IntPolynomial, chain) -> list:
    """isolate_real_roots of the squarefree poly of degree >= 1, with its
    Sturm chain; Cauchy's root_bound is strict, so +-bound are not roots."""
    bound = root_bound(poly)
    lo, hi = -bound, bound
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
    """Q[x]/(minpoly) for a monic irreducible integer polynomial, which
    the constructor certifies; the one Sturm chain that certifies it
    squarefree also isolates the real roots."""

    def __init__(self, minpoly: IntPolynomial):
        chain = irreducible_sturm_chain(minpoly)
        self.minpoly = minpoly
        self.degree = minpoly.degree
        self.real_roots = tuple(_isolate(minpoly, chain))
        # reduction rows: coordinates of x^n .. x^(2n-2), integers as the
        # minimal polynomial is monic
        n = self.degree
        rows = []
        if n >= 1:
            cur = [-c for c in minpoly.coeffs[:-1]]  # x^n
            rows.append(tuple(cur))
            for _ in range(n - 2):
                top = cur[-1]
                cur = [s + top * r for s, r in zip([0] + cur[:-1], rows[0])]
                rows.append(tuple(cur))
        self._power_rows = tuple(rows)
        self.zero = FieldElement(self, (0,) * n)
        self.one = FieldElement(self, (1,) + (0,) * (n - 1))
        if n >= 2:
            self.gen = FieldElement(self, (0, 1) + (0,) * (n - 2))
        else:
            # degree 1: the generator is the rational root itself
            self.gen = FieldElement(self, (-minpoly.coeffs[0],))

    def element(self, coords) -> "FieldElement":
        """The element with at most degree-many power-basis coordinates
        coords (values Fraction accepts), zero-padded to the degree.  Its
        numerators over the lcm of the coordinates' denominators are in
        lowest terms: each prime power of the lcm divides some denominator
        exactly, and that coordinate's numerator is prime to it."""
        if len(coords) > self.degree:
            raise ValueError(f"expected at most {self.degree} coordinates")
        coords = [Fraction(c) for c in coords]
        den = lcm(*(c.denominator for c in coords))
        num = tuple(c.numerator * (den // c.denominator) for c in coords)
        return FieldElement(self, num + (0,) * (self.degree - len(num)), den)

    def from_integers(self, num, den: int = 1) -> "FieldElement":
        """The element sum_i num[i] x^i / den, for degree-many integers num
        and a non-zero integer den, in lowest terms: den > 0 and
        gcd(num..., den) = 1."""
        if den < 0:
            num, den = [-c for c in num], -den
        if den != 1:
            g = gcd(den, *num)
            if g != 1:
                num, den = [c // g for c in num], den // g
        return FieldElement(self, tuple(num), den)

    def from_rational(self, q) -> "FieldElement":
        if not isinstance(q, int):
            q = Fraction(q)
        return FieldElement(self, (q.numerator,) + (0,) * (self.degree - 1), q.denominator)

    def mult_rows(self, num):
        """The integer multiplication matrix of num: row i is x^i * num, so
        an element num / den has the regular representation rows / den."""
        rows = [tuple(num)]
        for _ in range(self.degree - 1):
            cur = rows[-1]
            top = cur[-1]
            cur = (0,) + cur[:-1]
            if top:
                cur = tuple(c + top * r for c, r in zip(cur, self._power_rows[0]))
            rows.append(cur)
        return rows

    def mul_numerators(self, a, b) -> list:
        """The numerators of (a / d)(b / e) over d e, for integer
        coordinate vectors a and b: their product as polynomials, reduced
        by the minimal polynomial, with no common factor taken out."""
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        out = prod[:n]
        for k, row in enumerate(self._power_rows[: n - 1], start=n):
            c = prod[k]
            if c:
                out = [x + c * r for x, r in zip(out, row)]
        return out

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.minpoly == other.minpoly

    def __hash__(self):
        return hash(self.minpoly)

    def __repr__(self):
        return f"NumberField({self.minpoly})"


def make_field(minpoly: IntPolynomial) -> NumberField:
    """The field of minpoly; NumberField verifies monicity and
    irreducibility."""
    return NumberField(minpoly)


class FieldElement:
    """An element of a NumberField: integer power-basis numerators num over
    one positive denominator den, in lowest terms (gcd(num..., den) = 1),
    so equal elements have equal (num, den)."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: NumberField, num: tuple, den: int = 1):
        self.field = field
        self.num = num
        self.den = den

    @property
    def coords(self) -> tuple:
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field and other.field != self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    # -- arithmetic --------------------------------------------------------

    def _plus(self, o, sign):
        """self + sign * o over the least common denominator."""
        da, db = self.den, o.den
        if da == db:
            num = [x + sign * y for x, y in zip(self.num, o.num)]
            return self.field.from_integers(num, da)
        g = gcd(da, db)
        sa, sb = db // g, sign * (da // g)
        num = [x * sa + y * sb for x, y in zip(self.num, o.num)]
        return self.field.from_integers(num, da * sa)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._plus(o, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        field = self.field
        if isinstance(other, int):
            g = gcd(other, self.den)
            return field.from_integers([a * (other // g) for a in self.num], self.den // g)
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return field.from_integers(field.mul_numerators(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        """By Cramer's rule on the integer multiplication matrix M of num:
        the inverse's coordinates y solve y M = den e_0, so y_j is den
        times the cofactor C_(j,0) of M over det M."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        m = self.field.mult_rows(self.num)
        cof = [(-1) ** j * mat_det([row[1:] for i, row in enumerate(m) if i != j])
               for j in range(len(m))]
        det = sum(row[0] * c for row, c in zip(m, cof))
        return self.field.from_integers([self.den * c for c in cof], det)

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
            return self.is_rational() and Fraction(self.num[0], self.den) == other
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field == other.field and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.field.minpoly, self.num, self.den))

    def __repr__(self):
        return f"FieldElement{self.coords}"

    # -- invariants of the element ------------------------------------------

    def norm(self) -> Fraction:
        return Fraction(mat_det(self.field.mult_rows(self.num)), self.den ** self.field.degree)

    def trace(self) -> Fraction:
        rows = self.field.mult_rows(self.num)
        return Fraction(sum(row[i] for i, row in enumerate(rows)), self.den)

    def min_poly(self) -> IntPolynomial:
        """Minimal polynomial over Q, for an algebraic integer, which all
        callers here guarantee; ValueError otherwise.

        With d the degree, 1, a, ..., a^d over a common denominator span
        a rank-d lattice, so their integer relations are the multiples of
        one primitive c; the polynomial is integral and monic exactly when
        c_d = +-1."""
        d = self.degree_over_q()
        powers = [self.field.one]
        for _ in range(d):
            powers.append(powers[-1] * self)
        den = lcm(*(p.den for p in powers))
        (c,) = kernel_basis([[x * (den // p.den) for x in p.num] for p in powers])
        if c[-1] not in (1, -1):
            raise ValueError(f"element {self} is not an algebraic integer")
        return IntPolynomial(tuple(x * c[-1] for x in c))

    def degree_over_q(self) -> int:
        """The rank of 1, a, ..., a^(n-1), which is the degree of a's
        minimal polynomial; each power's numerators stand for it."""
        rows = [self.field.one.num]
        power = self.field.one
        for _ in range(self.field.degree - 1):
            power = power * self
            rows.append(power.num)
        return _rank(rows)


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
        yield _interval_horner(a.num, a.den, iv.lo, iv.hi)
        iv = iv.refined(iv.width / 4)


def eval_embedding(a: FieldElement, root: RealRootInterval, eps) -> tuple:
    """The first of enclosures(a, root) of width < eps, where root isolates
    an irrational root: one of a field's minimal polynomial, irreducible of
    degree >= 2.

    Level j of enclosures is a over the root interval after 3j halvings.
    No cut is the irrational root, so each halving is bisection's and the
    interval of level j is that of one refined call to width w / 2^(3j-1),
    w = root.width, made from the interval of any coarser level: Newton
    jumps land on bisection's cells (RealRootInterval.refined).  The
    intervals are nested and interval Horner is inclusion-isotone, so the
    widths never grow with j, and the first level narrower than eps lies
    above the deepest level known wide and at or below the shallowest
    known narrow.  Each probe is refined from the deepest wide level to
    the level the known widths point at, as a level shrinks a narrow
    interval's enclosure about 8-fold; two probes usually settle it, a
    wide level and the next one narrow.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    if a.is_rational():
        v = Fraction(a.num[0], a.den)
        return (v, v)
    num, den = a.num, a.den
    top = 2 * root.width  # level j is at width < top / 8^j
    iv, level = root, 0  # the deepest level known wide
    lo, hi = _interval_horner(num, den, root.lo, root.hi)
    if hi - lo < eps:
        return lo, hi
    width = hi - lo
    first = narrow = None  # the shallowest level known narrow, its enclosure
    while first != level + 1:
        if first is None:
            probe = level + max(1, _floor_log2(width / eps) // 3)
        else:
            probe = max(level + 1, first - 1 - _floor_log2(eps / (narrow[1] - narrow[0])) // 3)
        cell = iv.refined(top / (1 << 3 * probe))
        lo, hi = _interval_horner(num, den, cell.lo, cell.hi)
        if hi - lo < eps:
            first, narrow = probe, (lo, hi)
        else:
            iv, level, width = cell, probe, hi - lo
    return narrow


def _floor_log2(x: Fraction) -> int:
    """The k with 2^k <= x < 2^(k+1), for x > 0."""
    p, q = x.numerator, x.denominator
    k = p.bit_length() - q.bit_length()
    return k - 1 if p << max(-k, 0) < q << max(k, 0) else k


def _interval_horner(num, den, lo, hi):
    """Evaluate sum num[i] t^i / den over t in [lo, hi], exactly.

    Interval Horner on integers: with lo = a / D and hi = b / D over the
    endpoints' common denominator D, the accumulator after j steps is
    kept times D^j, so the coefficient added at step j is scaled by D^j,
    and min and max, which commute with positive scaling, pick the same
    candidates as over the rationals.  The two endpoints divided by
    D^(n-1) den are the only Fractions built.
    """
    dl, dh = lo.denominator, hi.denominator
    d = dl * dh // gcd(dl, dh)
    a = lo.numerator * (d // dl)
    b = hi.numerator * (d // dh)
    cur_lo = cur_hi = num[-1]
    scale = 1
    for c in num[-2::-1]:
        scale *= d
        cands = (cur_lo * a, cur_lo * b, cur_hi * a, cur_hi * b)
        c *= scale
        cur_lo, cur_hi = min(cands) + c, max(cands) + c
    scale *= den
    return Fraction(cur_lo, scale), Fraction(cur_hi, scale)


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
        return a.num[0] // a.den
    # irrational image: both endpoints eventually share a floor, and the
    # image itself is never an integer, so that floor is the answer
    for lo, hi in enclosures(a, root):
        if lo.numerator // lo.denominator == hi.numerator // hi.denominator:
            return lo.numerator // lo.denominator


# ---------------------------------------------------------------------------
# small exact linear algebra

def _rank(rows) -> int:
    """Rank over Q of integer row vectors, by fraction-free (Bareiss)
    elimination: each update is divided exactly by the previous pivot,
    which keeps the entries minors of the input."""
    rows = [list(r) for r in rows if any(r)]
    rank = 0
    prev = 1
    while rows:
        piv = rows.pop()
        col = next(j for j, x in enumerate(piv) if x)
        p = piv[col]
        rank += 1
        updated = []
        for r in rows:
            new = [(p * x - r[col] * y) // prev for x, y in zip(r, piv)]
            if any(new):
                updated.append(new)
        rows, prev = updated, p
    return rank

