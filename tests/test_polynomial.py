from fractions import Fraction

import pytest

from heckeaf.errors import NotMonic, NotSquarefree, ReduciblePolynomial
from heckeaf.exactnum.polynomial import (
    IntPolynomial,
    assert_irreducible,
    is_irreducible,
    _divides_monic,
    is_squarefree,
    root_bound,
    sturm_chain,
    sturm_count,
)


def P(*coeffs):
    return IntPolynomial(tuple(coeffs))


def test_trailing_zeros_are_trimmed_in_one_slice():
    assert P().coeffs == (0,)
    assert P(0, 0, 0).coeffs == (0,)
    assert P(0, 3, 0, 0).coeffs == (0, 3)
    # quadratic trimming, one slice per zero, took seconds on this
    assert P(5, *([0] * 200_000)).coeffs == (5,)


def test_basic_structure():
    p = P(-5, 0, 1)
    assert p.degree == 2
    assert p.is_monic()
    assert p.evaluate(Fraction(3)) == 4
    assert p.evaluate(3) == 4
    assert p.evaluate(Fraction(1, 2)) == Fraction(-19, 4)
    assert str(p) == "x^2 - 5"
    assert str(P(-1, -1, 1)) == "x^2 - x - 1"


def test_trailing_zeros_are_normalized():
    assert P(1, 2, 0, 0).degree == 1
    assert P(0, 0).degree == 0
    assert P().is_zero()


@pytest.mark.parametrize("coeffs", [
    (-5, 0, 1),        # x^2 - 5
    (-1, 1),           # x - 1
    (1, 0, 1),         # x^2 + 1: no real roots, still irreducible
    (-1, -1, 0, 1),    # x^3 - x - 1
    (1, 0, 0, 0, 1),   # x^4 + 1: reducible mod every prime
    (-1, 5, -5, -1, 1),
    (-1, 1, 1),        # x^2 + x - 1
    (3, -5, 0, 1),
    (-3, -4, 1, 1),
])
def test_irreducible_cases(coeffs):
    assert is_irreducible(P(*coeffs))


@pytest.mark.parametrize("coeffs", [
    (-4, 0, 1),            # (x-2)(x+2)
    (0, 1, 1),             # x(x+1)
    (2, 3, 1),             # (x+1)(x+2)
    (1, 0, -3, 0, 1),      # (x^2-x-1)(x^2+x-1)
    (-2, 1, -2, 1),        # (x-2)(x^2+1): one rational root
])
def test_reducible_cases(coeffs):
    with pytest.raises(ReduciblePolynomial):
        assert_irreducible(P(*coeffs))


def test_non_monic_and_squarefree_guards():
    with pytest.raises(NotMonic):
        assert_irreducible(P(-5, 0, 2))
    with pytest.raises(NotSquarefree):
        assert_irreducible(P(1, 2, 3, 2, 1))  # (x^2+x+1)^2
    assert not is_squarefree(P(1, 2, 1))
    assert is_squarefree(P(-4, 0, 1))


def test_monic_poly_division_and_gcd():
    # x^2 - 1 = (x + 1)(x - 1); x + 2 leaves the remainder 3
    assert _divides_monic((1, 1), (-1, 0, 1)) == [-1, 1]
    assert _divides_monic((2, 1), (-1, 0, 1)) is None
    assert _divides_monic((1, 1, 1), (1, 2, 3, 2, 1)) == [1, 1, 1]
    # the integer Sturm chain ends in gcd(p, p') up to a scalar: (x^2 - 1)
    # (x + 1) has gcd x + 1 with its derivative; x^2 + 1 and 6x^2 - 2 are
    # squarefree, their chains end in the constants -1 and 1
    assert sturm_chain(P(-1, -1, 1, 1).coeffs)[-1] == [1, 1]
    assert sturm_chain(P(1, 0, 1).coeffs) == [[1, 0, 1], [0, 1], [-1]]
    assert sturm_chain(P(-2, 0, 6).coeffs) == [[-1, 0, 3], [0, 1], [1]]


def test_sturm_counts_match_known_roots():
    p = P(-5, 0, 1)
    chain = sturm_chain(p.coeffs)
    b = root_bound(p)
    assert sturm_count(chain, -b, b) == 2
    assert sturm_count(chain, Fraction(0), b) == 1
    assert sturm_count(chain, Fraction(3), b) == 0

    q = P(1, 0, 1)  # no real roots
    chain = sturm_chain(q.coeffs)
    b = root_bound(q)
    assert sturm_count(chain, -b, b) == 0
