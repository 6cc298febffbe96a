import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckeaf.errors import DivisionByZero, HeckeafError, NotSquarefree, ReduciblePolynomial
from heckeaf.exactnum import (
    IntPolynomial,
    eval_embedding,
    exact_floor,
    isolate_real_roots,
    make_field,
    sign_at,
)
from heckeaf.exactnum.field import RealRootInterval
from heckeaf.exactnum.polynomial import is_squarefree

from util import random_element


@pytest.fixture(scope="module")
def sqrt5():
    return make_field(IntPolynomial((-5, 0, 1)))


def test_make_field_examples(sqrt5):
    assert sqrt5.degree == 2
    assert len(sqrt5.real_roots) == 2

    rationals = make_field(IntPolynomial((-1, 1)))
    assert rationals.degree == 1
    assert len(rationals.real_roots) == 1

    with pytest.raises(ReduciblePolynomial):
        make_field(IntPolynomial((-4, 0, 1)))


def test_isolate_real_roots_examples():
    ivs = isolate_real_roots(IntPolynomial((-5, 0, 1)))
    assert len(ivs) == 2
    neg, pos = ivs
    # bisection oracle: each interval brackets a sign change and can be
    # narrowed under any requested width
    p = IntPolynomial((-5, 0, 1))
    for iv in ivs:
        assert p.evaluate(iv.lo) * p.evaluate(iv.hi) < 0
        small = iv.refined(Fraction(1, 10 ** 6))
        assert small.width < Fraction(1, 10 ** 6)
        assert iv.lo <= small.lo < small.hi <= iv.hi
    tight = pos.refined(Fraction(1, 100))
    assert Fraction(22, 10) < tight.lo < tight.hi < Fraction(23, 10)

    assert isolate_real_roots(IntPolynomial((1, 0, 1))) == []

    cbrt2 = isolate_real_roots(IntPolynomial((-2, 0, 0, 1)))
    assert len(cbrt2) == 1
    tight = cbrt2[0].refined(Fraction(1, 10 ** 7))
    assert Fraction(125, 100) < tight.lo < tight.hi < Fraction(126, 100)
    assert Fraction(12599, 10000) < tight.lo < tight.hi < Fraction(12600, 10000)


def test_isolate_real_roots_cuts_past_rational_roots():
    """x (x + 1) (x + 3) has root bound 5: the first cut 0 and the shifted
    cut -1 are both roots, so the cut moves on to -5/7."""
    ivs = isolate_real_roots(IntPolynomial((0, 3, 4, 1)))
    assert [(iv.lo, iv.hi) for iv in ivs] == [
        (Fraction(-5), Fraction(-20, 7)),
        (Fraction(-20, 7), Fraction(-5, 7)),
        (Fraction(-5, 7), Fraction(5)),
    ]
    for iv, root in zip(ivs, (-3, -1, 0)):
        assert iv.lo < root < iv.hi

    with pytest.raises(NotSquarefree):
        isolate_real_roots(IntPolynomial((1, 2, 1)))


def test_isolation_handles_rational_roots():
    # squarefree with rational roots exercises the midpoint nudging
    ivs = isolate_real_roots(IntPolynomial((-4, 0, 1)))
    assert len(ivs) == 2
    assert ivs[0].lo < -2 < ivs[0].hi
    assert ivs[1].lo < 2 < ivs[1].hi


def test_elem_arith_examples(sqrt5):
    s5 = sqrt5.gen
    assert s5 * s5 == 5
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))
    psi = sqrt5.element((Fraction(-1, 2), Fraction(1, 2)))
    assert phi * psi == 1
    a = sqrt5.element((3, 7))
    assert a + sqrt5.zero == a
    with pytest.raises(DivisionByZero):
        a / sqrt5.zero


def test_field_axioms_on_random_triples(sqrt5):
    cbrt = make_field(IntPolynomial((-2, 0, 0, 1)))
    rng = random.Random(7)
    for field in (sqrt5, cbrt):
        for _ in range(100):
            a = random_element(field, rng)
            b = random_element(field, rng)
            c = random_element(field, rng)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            if not b.is_zero():
                assert (a / b) * b == a


def test_inverse_and_power(sqrt5):
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))
    assert phi * phi.inverse() == 1
    assert phi ** 5 == phi * phi * phi * phi * phi
    assert phi ** -2 == (phi.inverse()) ** 2
    assert phi ** 0 == 1


def test_eval_embedding_examples(sqrt5):
    pos = sqrt5.real_roots[-1]
    lo, hi = eval_embedding(sqrt5.gen, pos, Fraction(1, 1000))
    assert Fraction(2235, 1000) < lo < hi < Fraction(2237, 1000)
    assert hi - lo < Fraction(1, 1000)

    v = sqrt5.from_rational(Fraction(3, 2))
    assert eval_embedding(v, pos, Fraction(1, 10)) == (Fraction(3, 2), Fraction(3, 2))

    lo, hi = eval_embedding(sqrt5.zero, pos, Fraction(1, 100))
    assert lo <= 0 <= hi and hi - lo < Fraction(1, 100)


def test_eval_embedding_nesting(sqrt5):
    rng = random.Random(11)
    pos = sqrt5.real_roots[-1]
    for _ in range(20):
        a = random_element(sqrt5, rng)
        prev = None
        for k in (2, 4, 8, 16):
            eps = Fraction(1, 10 ** k)
            lo, hi = eval_embedding(a, pos, eps)
            assert hi - lo < eps
            if prev is not None:
                plo, phi_ = prev
                assert plo <= lo and hi <= phi_
            prev = (lo, hi)


def test_exact_floor_examples(sqrt5):
    neg, pos = sqrt5.real_roots
    assert exact_floor(sqrt5.gen, pos) == 2
    assert exact_floor(sqrt5.gen, neg) == -3
    assert exact_floor(sqrt5.from_rational(Fraction(7, 2)), pos) == 3
    assert exact_floor(sqrt5.from_rational(-3), pos) == -3


def test_floor_consistent_with_embedding(sqrt5):
    rng = random.Random(13)
    pos = sqrt5.real_roots[-1]
    for _ in range(40):
        a = random_element(sqrt5, rng)
        k = exact_floor(a, pos)
        lo, hi = eval_embedding(a, pos, Fraction(1, 10 ** 12))
        assert Fraction(k) <= hi and lo < Fraction(k + 1)


def test_sign_and_zero_tests(sqrt5):
    pos = sqrt5.real_roots[-1]
    neg = sqrt5.real_roots[0]
    assert sign_at(sqrt5.gen, pos) == 1
    assert sign_at(sqrt5.gen, neg) == -1
    assert sign_at(sqrt5.zero, pos) == 0
    # 2236/1000 < sqrt5 < 2237/1000: signs decided by refinement
    a = sqrt5.gen - sqrt5.from_rational(Fraction(2236, 1000))
    b = sqrt5.gen - sqrt5.from_rational(Fraction(2237, 1000))
    assert sign_at(a, pos) == 1
    assert sign_at(b, pos) == -1


def test_norm_trace_minpoly(sqrt5):
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))
    assert phi.norm() == -1
    assert phi.trace() == 1
    assert phi.min_poly() == IntPolynomial((-1, -1, 1))
    assert phi.degree_over_q() == 2
    assert sqrt5.from_rational(4).degree_over_q() == 1
    assert sqrt5.from_rational(4).norm() == 16


def reference_refined(iv, max_width):
    """Bisection on Fraction midpoints: the reference (lo, hi) that the
    integer bisection of RealRootInterval.refined must return."""
    lo, hi = iv.lo, iv.hi
    if hi - lo < max_width:
        return lo, hi
    sign_lo = 1 if iv.poly.evaluate(lo) > 0 else -1
    while hi - lo >= max_width:
        mid = (lo + hi) / 2
        v = iv.poly.evaluate(mid)
        if v == 0:
            mid = lo + (hi - lo) * Fraction(1, 3)
            v = iv.poly.evaluate(mid)
        if (1 if v > 0 else -1) == sign_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


@st.composite
def _squarefree_poly(draw):
    """A squarefree integer polynomial of degree 1..5, monic or not, with
    up to two rational roots p/q put in as factors q x - p."""
    coeffs = [draw(st.integers(-9, 9)) for _ in range(draw(st.integers(0, 3)))]
    coeffs.append(draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1))))
    for _ in range(draw(st.integers(0, 2))):
        p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 4))
        coeffs = [q * hi - p * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    poly = IntPolynomial(tuple(coeffs))
    assume(1 <= poly.degree <= 5 and is_squarefree(poly))
    return poly


_NON_DYADIC = st.builds(lambda num, den: Fraction(num, 3 * den),
                        st.integers(1, 10 ** 6).filter(lambda x: x % 3),
                        st.integers(1, 10 ** 12))


@settings(max_examples=40, deadline=None)
@given(_squarefree_poly(), st.data())
def test_integer_bisection_matches_fraction_bisection(poly, data):
    """refined returns the interval of Fraction bisection, at every
    isolating interval, for dyadic widths 2^-j up to j = 2000 and for
    widths that are not dyadic."""
    for iv in isolate_real_roots(poly):
        j = data.draw(st.integers(0, 2000), label="j")
        for max_width in (Fraction(1, 2 ** j), data.draw(_NON_DYADIC, label="width")):
            got = iv.refined(max_width)
            assert (got.lo, got.hi) == reference_refined(iv, max_width)
            assert got.poly == poly


@settings(max_examples=40, deadline=None)
@given(_squarefree_poly(), st.data())
def test_refining_a_refined_interval_matches_fraction_bisection(poly, data):
    """Refining again an interval that refined returned, as the basis
    enclosures of the Jacobi-Perron engine do, so that its common
    denominator carries 2^k: both refinements, with dyadic widths 2^-j up
    to j = 1200, return the intervals of Fraction bisection."""
    for iv in isolate_real_roots(poly):
        first, second = (Fraction(1, 2 ** data.draw(st.integers(0, 1200), label="j"))
                         for _ in range(2))
        once = iv.refined(first)
        assert (once.lo, once.hi) == reference_refined(iv, first)
        twice = once.refined(second)
        expected = reference_refined(RealRootInterval(poly, *reference_refined(iv, first)), second)
        assert (twice.lo, twice.hi) == expected


@pytest.mark.parametrize("coeffs, lo, hi", [
    # linear: the Newton step lands on the root 3 exactly, the left end of
    # its cell among the 2^s cells of (-4, 4)
    ((-3, 1), -4, 4),
    # (16x - 5)(x + 1000), convex: the step lands just right of the root
    # 5/16, so 5/16 is the left end of the cell
    ((-5000, 15995, 16), 0, 1),
    # (16x - 5)(1000 - x), concave: it lands just left, at the right end
    ((-5000, 16005, -16), 0, 1),
])
def test_a_rational_root_at_a_jump_cell_end_takes_the_thirds_path(coeffs, lo, hi):
    """A cell end of sign 0 hands the refinement back to bisection, whose
    cut then meets the rational root and moves to a third: the endpoints'
    denominators carry the 3, and the interval is Fraction bisection's."""
    iv = RealRootInterval(IntPolynomial(coeffs), Fraction(lo), Fraction(hi))
    for max_width in (Fraction(1, 2 ** 10), Fraction(1, 2 ** 40), Fraction(1, 10 ** 9)):
        got = iv.refined(max_width)
        assert (got.lo, got.hi) == reference_refined(iv, max_width)
        assert got.lo.denominator % 3 == 0 and got.hi.denominator % 3 == 0


def test_integer_bisection_nudges_off_a_rational_root():
    """x^3 - 2x on (-1, 1): the first midpoint 0 is the root, so the cut
    moves to -1/3, and every later cut is that of Fraction bisection."""
    iv = RealRootInterval(IntPolynomial((0, -2, 0, 1)), Fraction(-1), Fraction(1))
    for max_width in (Fraction(1), Fraction(1, 2 ** 40), Fraction(1, 10 ** 9)):
        got = iv.refined(max_width)
        assert (got.lo, got.hi) == reference_refined(iv, max_width)
        assert got.lo < 0 < got.hi
    got = iv.refined(Fraction(1))
    assert (got.lo, got.hi) == (Fraction(-1, 3), Fraction(1, 3))


def test_refined_rejects_an_interval_holding_two_rational_roots():
    """(2x - 1)(3x - 1) on (0, 1) is no isolating interval: the midpoint
    1/2 is a root, and so is the cut 1/3 that replaces it."""
    iv = RealRootInterval(IntPolynomial((1, -5, 6)), Fraction(0), Fraction(1))
    with pytest.raises(HeckeafError, match="two roots"):
        iv.refined(Fraction(1, 2))


@pytest.mark.parametrize("max_width", [Fraction(0), Fraction(-1)])
def test_refined_rejects_a_width_that_is_not_positive(max_width):
    """No interval is narrower than 0: the bisection would never stop."""
    root = isolate_real_roots(IntPolynomial((-2, 0, 1)))[1]
    with pytest.raises(ValueError):
        root.refined(max_width)
