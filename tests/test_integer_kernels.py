"""The integer field kernels against a Fraction-coordinate reference.

A FieldElement is an integer numerator vector over one positive
denominator, in lowest terms.  The reference below is the arithmetic it
replaced: Fraction coordinates, products reduced by the minimal
polynomial, the norm as a Fraction determinant of the multiplication
matrix, the inverse and the minimal polynomial by Fraction linear
solves.  Every operation must give the reference's coordinates, and
every result must be normalized.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from heckeaf.errors import DivisionByZero
from heckeaf.exactnum import IntPolynomial, make_field
from heckeaf.exactnum.field import _rank
from heckeaf.exactnum.intmat import mat_mul

# degree 1 to 5: Q, Q(sqrt 5), x^3 - 2 (one real root), sqrt 2 + sqrt 3
# (with the subfield Q(sqrt 6)) and the real subfield of Q(zeta_11)
FIELDS = [make_field(IntPolynomial(c)) for c in (
    (-3, 1), (-5, 0, 1), (-2, 0, 0, 1), (1, 0, -10, 0, 1), (1, 3, -3, -4, 1, 1))]


# -- the Fraction-coordinate reference -----------------------------------------

def ref_mul(a, b, minpoly):
    n = len(a)
    prod = [Fraction(0)] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):  # x^k = -sum_t m_t x^(k-n+t)
        c, prod[k] = prod[k], Fraction(0)
        for t in range(n):
            prod[k - n + t] -= c * minpoly[t]
    return tuple(prod[:n])


def ref_matrix(a, minpoly):
    n = len(a)
    rows, cur = [], tuple(a)
    x = tuple(Fraction(int(i == 1)) for i in range(n)) if n > 1 else (Fraction(-minpoly[0]),)
    for _ in range(n):
        rows.append(cur)
        cur = ref_mul(cur, x, minpoly)
    return rows


def ref_det(rows):
    m = [list(r) for r in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return det


def ref_solve(rows, rhs):
    """x with x * rows = rhs over Q, or None."""
    k, n = len(rows), len(rhs)
    aug = [[Fraction(rows[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(n)]
    piv_cols, r = [], 0
    for c in range(k):
        piv = next((rr for rr in range(r, n) if aug[rr][c] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for rr in range(n):
            if rr != r and aug[rr][c] != 0:
                f = aug[rr][c]
                aug[rr] = [v - f * w for v, w in zip(aug[rr], aug[r])]
        piv_cols.append(c)
        r += 1
    if any(aug[rr][k] != 0 for rr in range(r, n)):
        return None
    x = [Fraction(0)] * k
    for row_idx, c in enumerate(piv_cols):
        x[c] = aug[row_idx][k]
    return x


def ref_inverse(a, minpoly):
    one = tuple(Fraction(int(i == 0)) for i in range(len(a)))
    return tuple(ref_solve(ref_matrix(a, minpoly), one))


def ref_min_poly(a, minpoly):
    """The first dependency among 1, a, a^2, ...: (degree, coefficients)."""
    n = len(a)
    powers = [tuple(Fraction(int(i == 0)) for i in range(n))]
    for _ in range(n):
        powers.append(ref_mul(powers[-1], a, minpoly))
    for d in range(1, n + 1):
        sol = ref_solve(powers[:d], powers[d])
        if sol is not None:
            return d, [-c for c in sol] + [Fraction(1)]


# -- drawn elements --------------------------------------------------------------

_COORD = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def _elements(draw, count):
    """count elements of one field; each is a drawn polynomial in the
    generator or, to reach subfields, in its square."""
    field = draw(st.sampled_from(FIELDS))
    out = []
    for _ in range(count):
        base = draw(st.sampled_from((field.gen, field.gen * field.gen)))
        acc, power = field.zero, field.one
        for _ in range(field.degree):
            acc = acc + power * field.from_rational(draw(_COORD))
            power = power * base
        out.append(acc)
    return field, out


def check(elem, coords):
    """elem is normalized and has the reference's coordinates."""
    assert elem.den > 0
    assert gcd(elem.den, *elem.num) == 1
    assert len(elem.num) == elem.field.degree
    assert elem.coords == tuple(coords)


@settings(max_examples=150, deadline=None)
@given(_elements(2), st.integers(-3, 4), st.integers(-50, 50))
def test_arithmetic_matches_the_fraction_reference(case, e, k):
    field, (a, b) = case
    m = field.minpoly.coeffs
    ca, cb = a.coords, b.coords
    check(a, ca)
    check(field.element(ca), ca)
    check(a + b, [x + y for x, y in zip(ca, cb)])
    check(a - b, [x - y for x, y in zip(ca, cb)])
    check(-a, [-x for x in ca])
    check(a * b, ref_mul(ca, cb, m))
    check(k * a, [k * x for x in ca])
    check(a + k, [ca[0] + k] + list(ca[1:]))
    check(k - a, [k - ca[0]] + [-x for x in ca[1:]])
    if a.is_zero():
        with pytest.raises(DivisionByZero):
            a.inverse()
    else:
        inv = ref_inverse(ca, m)
        check(a.inverse(), inv)
        check(b / a, ref_mul(cb, inv, m))
    if e >= 0 or not a.is_zero():
        power = tuple(Fraction(int(i == 0)) for i in range(field.degree))
        for _ in range(abs(e)):
            power = ref_mul(power, ca if e > 0 else ref_inverse(ca, m), m)
        check(a ** e, power)
    assert (a == b) == (ca == cb)
    assert (a - b) + b == a
    assert hash((a - b) + b) == hash(a)
    assert (a == ca[0]) == a.is_rational()
    if ca[0].denominator == 1:
        assert (a == int(ca[0])) == a.is_rational()


@settings(max_examples=150, deadline=None)
@given(_elements(1))
def test_invariants_match_the_fraction_reference(case):
    field, (a,) = case
    m = field.minpoly.coeffs
    rows = ref_matrix(a.coords, m)
    assert [tuple(Fraction(c, a.den) for c in row) for row in field.mult_rows(a.num)] == rows
    assert a.norm() == ref_det(rows)
    assert a.trace() == sum(rows[i][i] for i in range(len(rows)))
    degree, coeffs = ref_min_poly(a.coords, m)
    assert a.degree_over_q() == degree
    if all(c.denominator == 1 for c in coeffs):
        assert a.min_poly() == IntPolynomial(tuple(int(c) for c in coeffs))
    else:
        with pytest.raises(ValueError):
            a.min_poly()


@settings(max_examples=80, deadline=None)
@given(_elements(1))
@example(case=(FIELDS[2], [FIELDS[2].element((0, 0, Fraction(1, 2)))]))
def test_min_poly_matches_sympy(case):
    """sympy's minimal polynomial of the same polynomial in a root of the
    field polynomial: primitive over Z, so a.min_poly() exists exactly
    when its leading coefficient is 1, and then the two agree.  sympy
    1.14 fails on some AlgebraicNumbers with an AttributeError (x^2 / 2 in
    Q(2^(1/3)), the example); those go to it again as the same polynomial
    in the root, an expression it handles, more slowly."""
    field, (a,) = case
    x = sympy.symbols("x")
    root = sympy.CRootOf(sympy.Poly(list(reversed(field.minpoly.coeffs)), x), 0)
    expr = sympy.AlgebraicNumber(root, [sympy.Rational(c.numerator, c.denominator)
                                        for c in reversed(a.coords)])
    try:
        want = sympy.minimal_polynomial(expr, x)
    except AttributeError:
        want = sympy.minimal_polynomial(expr.as_expr(), x)
    want = sympy.Poly(want, x)
    if want.LC() == 1:
        assert a.min_poly() == IntPolynomial(tuple(int(c) for c in reversed(want.all_coeffs())))
    else:
        with pytest.raises(ValueError):
            a.min_poly()


def test_subfield_elements_have_lower_degree():
    """In Q(sqrt 2 + sqrt 3), x^2 = 5 + 2 sqrt 6 has degree 2 and min poly
    x^2 - 10 x + 1; rationals have degree 1."""
    field = FIELDS[3]
    sq = field.gen * field.gen
    assert sq.degree_over_q() == 2
    assert sq.min_poly() == IntPolynomial((1, -10, 1))
    assert field.from_rational(Fraction(-7, 3)).degree_over_q() == 1
    assert (sq / 3 + Fraction(1, 2)).degree_over_q() == 2


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=6)))
def test_rank_matches_sympy(rows):
    """The fraction-free elimination, whose divisions by the previous
    pivot must be exact, gives sympy's rank, singular inputs included."""
    assert _rank(rows) == sympy.Matrix(rows).rank()


def ref_mat_mul(a, b):
    """The index loop mat_mul replaced."""
    n, k, m = len(a), len(b), len(b[0])
    return tuple(tuple(sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m))
                 for i in range(n))


@st.composite
def _matrix_pair(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    entry = st.one_of(st.integers(-10 ** 30, 10 ** 30),
                      st.fractions(-100, 100, max_denominator=7))
    a = tuple(tuple(draw(entry) for _ in range(k)) for _ in range(n))
    b = tuple(tuple(draw(entry) for _ in range(m)) for _ in range(k))
    return a, b


@settings(max_examples=60, deadline=None)
@given(_matrix_pair())
def test_mat_mul_matches_the_index_loop(pair):
    """Row-by-column products over the columns of B give the index loop's
    product, on rectangular integer and Fraction matrices."""
    a, b = pair
    assert mat_mul(a, b) == ref_mat_mul(a, b)
