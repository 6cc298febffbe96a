"""The integer polynomial kernels against independent oracles.

Field construction runs on integers: Berkowitz's characteristic
polynomial, the Sturm chain as a primitive pseudo-remainder sequence,
signs at rationals as scaled integer Horner sums, and trial division of
monic candidates.  sympy is the oracle for the char poly and for
factorizations; the Fraction Sturm chain and root isolation they replaced
are kept below as test-local references.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from heckeaf.exactnum.field import RealRootInterval, isolate_real_roots
from heckeaf.exactnum.intmat import charpoly
from heckeaf.exactnum.polynomial import (
    IntPolynomial,
    _trial_factor_search,
    assert_irreducible,
    is_irreducible,
    is_squarefree,
    root_bound,
    sign_variations,
    sturm_chain,
    sturm_count,
)
from heckeaf.exactnum import polynomial

X = sympy.symbols("x")


# -- the Fraction references ----------------------------------------------------

def ref_coeffs(poly):
    return [Fraction(c) for c in poly.coeffs]


def ref_rem(p, q):
    """p mod q over Q by long division, trimmed to its degree."""
    rem = list(p)
    while any(rem) and len(rem) >= len(q):
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        while len(rem) > 1 and rem[-1] == 0:
            rem.pop()
    return rem


def ref_deriv(p):
    if len(p) <= 1:
        return [Fraction(0)]
    return [Fraction(i) * p[i] for i in range(1, len(p))]


def ref_eval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def ref_sturm_chain(p):
    """The classical chain over Q: p, p', then -(a mod b)."""
    chain = [list(p), ref_deriv(p)]
    while any(chain[-1]) and len(chain[-1]) > 1:
        rem = ref_rem(chain[-2], chain[-1])
        if not any(rem):
            break
        chain.append([-c for c in rem])
    return [c for c in chain if any(c)]


def ref_is_squarefree(poly):
    """Whether the Euclidean gcd of poly and poly' over Q is constant."""
    a, b = ref_coeffs(poly), ref_deriv(ref_coeffs(poly))
    while any(b):
        a, b = b, ref_rem(a, b)
    return len(a) == 1


def ref_sturm_count(chain, a, b):
    return (sign_variations([ref_eval(c, a) for c in chain])
            - sign_variations([ref_eval(c, b) for c in chain]))


def ref_isolate_real_roots(poly):
    """Sturm bisection on Fractions, with the same cuts as the library."""
    if poly.degree == 0:
        return []
    assert ref_is_squarefree(poly)
    chain = ref_sturm_chain(ref_coeffs(poly))
    bound = root_bound(poly)
    out = []
    stack = [(-bound, bound, ref_sturm_count(chain, -bound, bound))]
    while stack:
        a, b, count = stack.pop()
        if count == 0:
            continue
        if count == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        if poly.evaluate(mid) == 0:
            mid = next(m for m in (a + (b - a) * Fraction(j, 2 * j + 1)
                                   for j in range(2, poly.degree + 3))
                       if poly.evaluate(m) != 0)
        cl = ref_sturm_count(chain, a, mid)
        stack.append((a, mid, cl))
        stack.append((mid, b, count - cl))
    return sorted(out)


# -- strategies -----------------------------------------------------------------

@st.composite
def _squarefree_poly(draw):
    """A squarefree integer polynomial of degree 1 to 6, with up to two
    rational roots p/q put in as factors q x - p."""
    coeffs = [draw(st.integers(-30, 30)) for _ in range(draw(st.integers(0, 4)))]
    coeffs.append(draw(st.integers(1, 9)) * draw(st.sampled_from((1, -1))))
    for _ in range(draw(st.integers(0, 2))):
        p, q = draw(st.integers(-6, 6)), draw(st.integers(1, 4))
        coeffs = [q * hi - p * lo for lo, hi in zip(coeffs + [0], [0] + coeffs)]
    poly = IntPolynomial(tuple(coeffs))
    assume(1 <= poly.degree <= 6 and ref_is_squarefree(poly))
    return poly


_RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))


def _sign(v):
    return (v > 0) - (v < 0)


# -- tests ----------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.lists(st.lists(st.integers(-50, 50), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_charpoly_matches_sympy(rows):
    a = tuple(tuple(r) for r in rows)
    expected = sympy.Matrix(a).charpoly(X).all_coeffs()
    assert charpoly(a).coeffs == tuple(int(c) for c in reversed(expected))


@settings(max_examples=80, deadline=None)
@given(_squarefree_poly(), st.lists(_RATIONALS, min_size=1, max_size=6))
def test_integer_sturm_chain_has_the_signs_of_the_fraction_chain(poly, points):
    """Each integer member is a positive multiple of the Fraction member:
    same length, same degrees, same sign at every rational."""
    chain = sturm_chain(poly.coeffs)
    ref = ref_sturm_chain(ref_coeffs(poly))
    assert [len(c) for c in chain] == [len(c) for c in ref]
    assert all(type(x) is int for c in chain for x in c)
    for x in points:
        assert ([_sign(IntPolynomial(tuple(c)).evaluate(x)) for c in chain]
                == [_sign(ref_eval(c, x)) for c in ref])
    a, b = sorted(points[:1] + [points[-1] + 1])
    assert sturm_count(chain, a, b) == ref_sturm_count(ref, a, b)


@pytest.mark.parametrize("coeffs", [
    (1, 4, 0, 0, 1),         # x^4 + 4x + 1: x^3 + 1, then -3x - 1
    (1, -4, 0, 0, 1),        # x^4 - 4x + 1: x^3 - 1, then 3x - 1
    (-1, -4, 0, 0, -1),      # negative leading coefficient
    (1, -7, 0, 0, 0, 0, 2),  # 2x^6 - 7x + 1: x^5 gap to degree 1
])
def test_sturm_chain_across_a_degree_gap(coeffs):
    """Where a member's degree drops by two or more, the pseudo-remainder
    multiplier |lc b|^(deg a - deg b + 1) has an odd exponent and the sign
    of lc b decides the sign of the next member: the chain still has the
    Fraction chain's signs, and the isolating intervals are the same."""
    poly = IntPolynomial(coeffs)
    chain = sturm_chain(poly.coeffs)
    ref = ref_sturm_chain(ref_coeffs(poly))
    assert any(len(a) - len(b) >= 2 for a, b in zip(chain[1:], chain[2:]))
    assert [len(c) for c in chain] == [len(c) for c in ref]
    for x in [Fraction(k, 4) for k in range(-20, 21)]:
        assert ([_sign(IntPolynomial(tuple(c)).evaluate(x)) for c in chain]
                == [_sign(ref_eval(c, x)) for c in ref])
    assert [(iv.lo, iv.hi) for iv in isolate_real_roots(poly)] == ref_isolate_real_roots(poly)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.integers(-20, 20), min_size=1, max_size=7))
def test_is_squarefree_matches_the_fraction_gcd(coeffs):
    poly = IntPolynomial(tuple(coeffs))
    assume(not poly.is_zero())
    assert is_squarefree(poly) == ref_is_squarefree(poly)
    assert is_squarefree(poly) == (
        poly.degree < 1 or sympy.degree(sympy.gcd(sympy.Poly(coeffs[::-1], X),
                                                  sympy.Poly(coeffs[::-1], X).diff(X))) == 0)


@settings(max_examples=80, deadline=None)
@given(_squarefree_poly())
def test_isolate_real_roots_matches_the_fraction_bisection(poly):
    got = isolate_real_roots(poly)
    assert poly.evaluate(root_bound(poly)) != 0 and poly.evaluate(-root_bound(poly)) != 0
    assert [(iv.lo, iv.hi) for iv in got] == ref_isolate_real_roots(poly)
    assert all(isinstance(iv, RealRootInterval) and iv.poly == poly for iv in got)
    assert len(got) == len(sympy.Poly(poly.coeffs[::-1], X).real_roots())


def test_fraction_evaluation_is_one_scaled_horner_sum():
    p = IntPolynomial((7, -3, 0, 2))
    for x in (Fraction(-7, 3), Fraction(5, 8), Fraction(4), Fraction(0)):
        assert p.evaluate(x) == ref_eval(ref_coeffs(p), x)
        assert p.evaluate(x.numerator) == ref_eval(ref_coeffs(p), x.numerator)


_MONIC_QUADRATIC = st.tuples(st.integers(-12, 12), st.integers(-12, 12))


@settings(max_examples=40, deadline=None)
@given(_MONIC_QUADRATIC, _MONIC_QUADRATIC)
def test_trial_factor_search_finds_a_quadratic_factor(q1, q2):
    """The product of two monic quadratics has a monic quadratic factor,
    and the one found is a product of sympy's irreducible factors."""
    a = sympy.Poly([1, q1[1], q1[0]], X) * sympy.Poly([1, q2[1], q2[0]], X)
    assume(a.eval(0) != 0)  # the search takes the constant term's divisors
    poly = IntPolynomial(tuple(int(c) for c in reversed(a.all_coeffs())))
    factor = _trial_factor_search(poly, {2})
    assert factor is not None and factor.degree == 2 and factor.is_monic()
    f = sympy.Poly(list(reversed(factor.coeffs)), X)
    assert a.rem(f).is_zero
    remaining = dict(sympy.factor_list(a.as_expr())[1])
    for g, mult in sympy.factor_list(f.as_expr())[1]:
        assert remaining.get(g, 0) >= mult
        remaining[g] -= mult


def test_trial_factor_search_certifies_the_seed_4002_quartic(monkeypatch):
    """x^4 - 28516x^3 - 393x^2 - 62x - 1, the char poly of a mcf-random case,
    leaves degree 2 after its patterns mod p: the integer trial division
    finds no factor, so the quartic is irreducible, as sympy says."""
    poly = IntPolynomial((-1, -62, -393, -28516, 1))
    searched = []
    original = polynomial._trial_factor_search

    def recorded(p, degrees, *args):
        found = original(p, degrees, *args)
        searched.append((set(degrees), found))
        return found

    monkeypatch.setattr(polynomial, "_trial_factor_search", recorded)
    assert assert_irreducible(poly) is None
    assert searched == [({2}, None)]
    assert sympy.Poly(poly.coeffs[::-1], X).is_irreducible


def _monic(coeffs):
    """The monic polynomial with lower coefficients coeffs, constant first."""
    return tuple(coeffs) + (1,)


@st.composite
def _monic_quartic_or_sextic(draw):
    """A monic quartic or sextic with integer coefficients: drawn whole, or
    the product of two monic factors of degrees (1, 3), (2, 2), (1, 5),
    (2, 4) or (3, 3).  Coefficients stay small enough for the trial
    factor search to stay within its budget."""
    n = draw(st.sampled_from([4, 6]))
    span = 20 if n == 4 else 3
    if draw(st.booleans()):
        return _monic(draw(st.lists(st.integers(-span, span), min_size=n, max_size=n)))
    d = draw(st.integers(1, n // 2))
    span = 10 if n == 4 else 2
    g, h = (sympy.Poly(_monic(draw(st.lists(st.integers(-span, span), min_size=k, max_size=k)))[::-1], X)
            for k in (d, n - d))
    return tuple(int(c) for c in reversed((g * h).all_coeffs()))


@settings(max_examples=150, deadline=None)
@given(_monic_quartic_or_sextic())
def test_is_irreducible_matches_sympy_factor_list(coeffs):
    """Stopping the mod-p pattern scan once no factor degree is left
    changes no verdict: on drawn monic quartics and sextics, irreducible or
    products of two factors, is_irreducible agrees with sympy's
    factor_list (one factor, to the first power)."""
    _, factors = sympy.factor_list(sympy.Poly(coeffs[::-1], X).as_expr())
    expected = len(factors) == 1 and factors[0][1] == 1
    assert is_irreducible(IntPolynomial(coeffs)) is expected


def test_one_pattern_mod_p_settles_a_quartic(monkeypatch):
    """x^4 - 3x^3 + 3x^2 + 2x + 1 has no rational root, and its first good
    reduction's degree pattern has no subset summing to 2: one
    _factor_degrees_mod_p call certifies it irreducible (8 when six
    patterns were computed before any was intersected)."""
    poly = IntPolynomial((1, 2, 3, -3, 1))
    calls = []
    original = polynomial._factor_degrees_mod_p

    def recorded(p, prime):
        calls.append(prime)
        return original(p, prime)

    monkeypatch.setattr(polynomial, "_factor_degrees_mod_p", recorded)
    assert assert_irreducible(poly) is None
    assert len(calls) == 1
    assert sympy.Poly(poly.coeffs[::-1], X).is_irreducible
