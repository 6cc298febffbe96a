import random
from fractions import Fraction

import pytest

from heckeaf.errors import DivisionByZero, NotSquarefree, ReduciblePolynomial
from heckeaf.exactnum import (
    IntPolynomial,
    eval_embedding,
    exact_floor,
    isolate_real_roots,
    make_field,
    sign_at,
)

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
