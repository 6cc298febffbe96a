import dataclasses
import re
from collections import Counter
from fractions import Fraction
from itertools import chain, permutations, product
from math import isqrt
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from heckeaf import hecke
from heckeaf.errors import (
    DegenerateSpectrum,
    HeckeafError,
    NonnegativeFormNotFound,
    NotEndomorphism,
    NotFactorizable,
    RoundTripMismatch,
    UnitNotFound,
)
from heckeaf.exactnum import (
    IntPolynomial,
    endomorphism_ring,
    find_unit,
    is_dominant_at,
    make_field,
    make_nonnegative,
    module_from_generators,
    multiplication_matrix,
    eval_embedding,
    sign_at,
)
from heckeaf.exactnum.intmat import (
    charpoly, is_primitive, mat_det, mat_identity, mat_inverse_fraction, mat_mul,
)
from heckeaf.exactnum import units
from heckeaf.exactnum.units import (
    UnitElement,
    _attractor_data,
    _dominant_of_full_degree,
    _lll_transform,
    _nonnegative_conjugates,
    _shell,
    _signed_conjugates,
    _times_signed_permutation,
    trace_gram,
)
from heckeaf import mcf
from test_attractor import reference_attractor_data
from util import CUBIC_FAMILIES, irreducible_totally_real, mat_pow

LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"


@pytest.fixture(scope="module")
def golden():
    field = make_field(IntPolynomial((-5, 0, 1)))
    phi = field.element((Fraction(1, 2), Fraction(1, 2)))
    module = module_from_generators(field, [field.one, phi])
    order = endomorphism_ring(module)
    return field, phi, module, order


def test_find_unit_golden(golden):
    field, phi, module, order = golden
    # the order is Z[(1 + sqrt5)/2], the maximal order of discriminant 5
    assert order.module == module_from_generators(field, [field.one, phi])
    root = field.real_roots[-1]
    v, _ = _attractor_data(order.module, root)
    # Pell oracle: x^2 - x - 1 has constant term -1
    assert v == phi
    assert v.norm() == -1
    assert v.min_poly() == IntPolynomial((-1, -1, 1))


def test_find_unit_sqrt2():
    field = make_field(IntPolynomial((-2, 0, 1)))
    module = module_from_generators(field, [field.one, field.gen])
    order = endomorphism_ring(module)
    root = field.real_roots[-1]
    v, _ = _attractor_data(order.module, root)
    # continued fraction oracle: sqrt2 = [1; 2, 2, ...] gives 1 + sqrt2
    assert v == field.one + field.gen
    assert v.norm() == -1


def test_find_unit_suborder():
    field = make_field(IntPolynomial((-5, 0, 1)))
    module = module_from_generators(field, [field.one, field.gen])
    order = endomorphism_ring(module)
    # the order is Z[sqrt5], of discriminant 20
    assert order.module == module_from_generators(field, [field.one, field.gen])
    root = field.real_roots[-1]
    v, _ = _attractor_data(order.module, root)
    # fundamental unit of Z[sqrt5] is 2 + sqrt5 (phi^3)
    assert v == field.element((2, 1))
    assert v.norm() == -1
    assert order.contains(v.inverse())


def test_find_unit_degree_one():
    field = make_field(IntPolynomial((-1, 1)))
    order = endomorphism_ring(module_from_generators(field, [field.one]))
    with pytest.raises(UnitNotFound):
        find_unit(order, field.real_roots[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_shells_cover_every_vector_once(n, b):
    """The shells of max-norm 1..b hold every nonzero integer vector of
    max-norm <= b exactly once, shell k those of max-norm exactly k."""
    for k in range(1, b + 1):
        assert all(max(map(abs, v)) == k for v in _shell(k, n))
    got = Counter(chain.from_iterable(_shell(k, n) for k in range(1, b + 1)))
    want = set(product(range(-b, b + 1), repeat=n)) - {(0,) * n}
    assert set(got) == want and set(got.values()) == {1}


def _max_norm_found_at(u, order):
    """The max-norm of the coordinate vector the enumeration found u as:
    u is that vector's element or its inverse, up to sign."""
    return min(max(map(abs, order.module.coordinates_of(v))) for v in (u, u.inverse()))


@pytest.fixture(scope="module")
def sqrt2_plus_sqrt3():
    """Z[alpha] for alpha = sqrt2 + sqrt3, root of x^4 - 10x^2 + 1.  The
    unit alpha is not dominant anywhere: alpha^2 = 5 + 2 sqrt6 has degree
    2.  The shells of max-norm 1 and 2 (624 vectors) hold no dominant
    unit, the shell of max-norm 3 does."""
    field = make_field(IntPolynomial((1, 0, -10, 0, 1)))
    gens = [field.one]
    for _ in range(3):
        gens.append(gens[-1] * field.gen)
    order = endomorphism_ring(module_from_generators(field, gens))
    assert order.module == module_from_generators(field, gens)
    assert not is_dominant_at(field.gen, field.real_roots[-1])
    return field, order


@pytest.mark.parametrize("index", range(4))
def test_spent_unit_budget_raises_unit_not_found(monkeypatch, sqrt2_plus_sqrt3, index):
    """With no dominant unit in the shells that fit the budget, the search
    raises with its counters instead of returning a non-dominant unit."""
    field, order = sqrt2_plus_sqrt3
    monkeypatch.setattr(units, "_MAX_CANDIDATES", 624)
    with pytest.raises(UnitNotFound, match=r"among 624 candidates, .* max-norm <= 2$"):
        find_unit(order, field.real_roots[index])


@pytest.mark.parametrize("index", range(4))
def test_unit_search_reaches_the_shell_of_max_norm_three(monkeypatch, sqrt2_plus_sqrt3, index):
    """The next budget fits the shell of max-norm 3, which holds a dominant
    unit at every embedding.  The search tests each vector up to it once."""
    field, order = sqrt2_plus_sqrt3
    root = field.real_roots[index]
    monkeypatch.setattr(units, "_MAX_CANDIDATES", 2400)
    tested = Counter()
    shell = units._shell

    def recorded(bound, n):
        for coords in shell(bound, n):
            tested[coords] += 1
            yield coords

    monkeypatch.setattr(units, "_shell", recorded)
    u = find_unit(order, root)
    assert set(tested) == set(product(range(-3, 4), repeat=4)) - {(0,) * 4}
    assert set(tested.values()) == {1}
    assert _max_norm_found_at(u.element, order) == 3
    assert u.element.degree_over_q() == 4 and _dominant_of_full_degree(u.element, root)
    assert u.norm == u.element.norm() == 1
    assert order.contains(u.element) and order.contains(u.element.inverse())


def ref_shell_search(order, root):
    """find_unit as it was, norm-testing both vectors of each pair +-c of a
    shell: the full enumeration, under the same budget."""
    field = order.field
    if field.degree < 2:
        raise UnitNotFound("degree-1 orders have only the torsion units +1, -1")
    n = field.degree
    den = order.module.den
    cols = tuple(zip(*order.module.rows))
    tested = bound = 0
    while tested + (2 * bound + 3) ** n - (2 * bound + 1) ** n <= units._MAX_CANDIDATES:
        bound += 1
        reps = {}
        for coords in _shell(bound, n):
            tested += 1
            num = [sum(c * x for c, x in zip(coords, col)) for col in cols]
            if abs(mat_det(field.mult_rows(num))) != den ** n:
                continue
            alpha = field.from_integers(num, den)
            if not alpha.is_rational():
                reps[units._expanding_representative(alpha, root)] = None
        best = None
        for rep in reps:
            if rep.degree_over_q() == n and _dominant_of_full_degree(rep, root) and (
                    best is None or sign_at(rep - best, root) < 0):
                best = rep
        if best is not None:
            return UnitElement(best, int(best.norm()), order)
    raise UnitNotFound(f"no unit dominant at the embedding among {tested} candidates, "
                       f"every coordinate vector of max-norm <= {bound}")


@st.composite
def _unit_search_order(draw):
    """(order, root, budget): the End(m) of a module of one of the four
    cubic families over a drawn totally real cubic field, Z[c sqrt d] for
    a non-square d <= 10^4 and c <= 3, or Z[sqrt2 + sqrt3]; at a drawn
    real embedding; and a budget that fits the shells of max-norm up to a
    drawn b >= 1 (at most 30, 5 and 3 at degree 2, 3 and 4), with a drawn
    slack short of the next shell."""
    kind = draw(st.sampled_from(["cubic", "quadratic", "sqrt2+sqrt3"]))
    if kind == "cubic":
        a, b, c = draw(st.tuples(*[st.integers(-8, 8)] * 3).filter(irreducible_totally_real),
                       label="abc")
        field = make_field(IntPolynomial((c, b, a, 1)))
        gens = [field.element(row) for row in draw(st.sampled_from(CUBIC_FAMILIES), label="rows")]
    elif kind == "quadratic":
        d = draw(st.integers(2, 10 ** 4).filter(lambda d: isqrt(d) ** 2 != d), label="d")
        field = make_field(IntPolynomial((-d, 0, 1)))
        gens = [field.one, field.gen * draw(st.integers(1, 3), label="c")]
    else:
        field = make_field(IntPolynomial((1, 0, -10, 0, 1)))
        gens = [field.one, field.gen, field.gen * field.gen, field.gen ** 3]
    n = field.degree
    index = draw(st.integers(0, n - 1), label="index")
    b = draw(st.integers(1, {2: 30, 3: 5, 4: 3}[n]), label="b")
    budget = (2 * b + 1) ** n - 1 + draw(st.integers(0, (2 * b + 3) ** n - (2 * b + 1) ** n - 1))
    return endomorphism_ring(module_from_generators(field, gens)), field.real_roots[index], budget


@settings(max_examples=100, deadline=None)
@given(_unit_search_order())
def test_halved_unit_search_matches_the_full_enumeration(case):
    """Norm-testing one vector of each pair +-c changes no outcome: under a
    lowered budget, the search returns the full enumeration's unit, or
    raises UnitNotFound with the same message (the same candidate count
    and max-norm)."""
    order, root, budget = case
    outcomes = []
    with patch.object(units, "_MAX_CANDIDATES", budget):
        for search in (find_unit, ref_shell_search):
            try:
                outcomes.append(search(order, root))
            except UnitNotFound as exc:
                outcomes.append((UnitNotFound, str(exc)))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("poly", [(-1, -1, 0, 1), (3, -5, 0, 1), (1, -2, -1, 1), (-2, 0, 0, 1)])
def test_enumerated_unit_is_dominant_and_carries_its_own_norm(poly):
    """In odd degree the expanding sign of a unit flips its norm: the norm
    recorded is that of the unit returned."""
    field = make_field(IntPolynomial(poly))
    gens = [field.one, field.gen, field.gen * field.gen]
    order = endomorphism_ring(module_from_generators(field, gens))
    for root in field.real_roots:
        u = find_unit(order, root)
        assert u.norm == u.element.norm()
        assert u.element.degree_over_q() == 3 and _dominant_of_full_degree(u.element, root)


@pytest.mark.parametrize("spec", ["level23a@0", "level23a@1", "level71a@0", "level71a@1",
                                  "level71a@2", "level71b@0", "level71b@1", "level71b@2",
                                  "level47a@0", "level47a@1", "level47a@2", "level47a@3"])
def test_pipeline_units_are_dominant(spec):
    """The bundled fixtures take the return unit of their cycling
    expansion; level47a, whose expansion does not cycle, a unit from the
    shell of max-norm 1."""
    name, index = spec.split("@")
    f = hecke.load_newform(LEVEL47A.read_text()) if name == "level47a" else hecke.load_fixture(name)
    module = hecke.module_of_eigenform(f)
    root = f.field.real_roots[int(index)]
    order = endomorphism_ring(module)
    cycle = _attractor_data(module, root)
    assert (cycle is None) == (name == "level47a")
    u = find_unit(order, root).element if cycle is None else cycle[0]
    assert u.degree_over_q() == f.field.degree
    assert _dominant_of_full_degree(u, root)
    if name == "level47a":
        assert _max_norm_found_at(u, order) == 1


@pytest.mark.parametrize("index", range(4))
def test_shell_unit_is_the_exact_minimum_tested_once(monkeypatch, index):
    """level47a's unit comes from the shell of max-norm 1, which holds each
    unit as up to four of +-alpha^+-1.  The search tests each unit once for
    dominance and returns the dominant one of least image in the exact
    order of the images, as the oracle finds it: every unit of the shell by
    its exact norm, the member of its class with image > 1, and the least
    by the exact sign of the differences."""
    f = hecke.load_newform(LEVEL47A.read_text())
    order = endomorphism_ring(hecke.module_of_eigenform(f))
    root = f.field.real_roots[index]
    basis = order.basis_elements()
    reps = set()
    for coords in product((-1, 0, 1), repeat=4):
        alpha = sum((c * b for c, b in zip(coords, basis)), f.field.zero)
        if abs(alpha.norm()) == 1 and alpha.degree_over_q() == 4:
            reps.update(x for x in (alpha, -alpha, alpha.inverse(), -alpha.inverse())
                        if sign_at(x - f.field.one, root) > 0)
    dominant = [u for u in reps if is_dominant_at(u, root)]
    least = [u for u in dominant if all(sign_at(v - u, root) > 0 for v in dominant if v != u)]
    assert len(least) == 1

    tested = []
    original = units._dominant_of_full_degree

    def counted(u, r):
        tested.append(u)
        return original(u, r)

    monkeypatch.setattr(units, "_dominant_of_full_degree", counted)
    assert find_unit(order, root).element == least[0]
    assert len(tested) == len(set(tested)) == len(reps)


def test_unit_invariants_various_orders():
    cases = [
        IntPolynomial((-5, 0, 1)),
        IntPolynomial((-2, 0, 1)),
        IntPolynomial((-3, 0, 1)),
        IntPolynomial((-1, -1, 0, 1)),
        IntPolynomial((3, -5, 0, 1)),
    ]
    for poly in cases:
        field = make_field(poly)
        gens = [field.one]
        for _ in range(field.degree - 1):
            gens.append(gens[-1] * field.gen)
        module = module_from_generators(field, gens)
        order = endomorphism_ring(module)
        root = field.real_roots[-1]
        v, _ = _attractor_data(order.module, root)
        assert abs(v.norm()) == 1
        a = multiplication_matrix(v, module)
        assert mat_det(a) in (1, -1)
        assert order.contains(v) and order.contains(v.inverse())
        lo, _ = eval_embedding(v, root, Fraction(1, 1000))
        assert lo > 1


def test_multiplication_matrix_examples():
    field = make_field(IntPolynomial((-2, 0, 1)))
    module = module_from_generators(field, [field.one, field.gen])
    u = field.one + field.gen
    a = multiplication_matrix(u, module)
    # (1+sqrt2)*1 = 1 + sqrt2, (1+sqrt2)*sqrt2 = 2 + sqrt2
    assert a == ((1, 1), (2, 1))
    assert multiplication_matrix(field.one, module) == ((1, 0), (0, 1))
    # char poly of the action equals the unit's field polynomial
    assert charpoly(a) == u.min_poly()
    with pytest.raises(NotEndomorphism):
        multiplication_matrix(field.gen / 2, module)


def test_multiplication_matrix_charpoly_property(golden):
    field, phi, module, order = golden
    for elem in (phi, phi * phi, phi + 2):
        a = multiplication_matrix(elem, module)
        assert charpoly(a) == elem.min_poly()


def test_make_nonnegative_golden(golden):
    """The cycle's closed form and the form search on its unit both give
    the golden-ratio block ((0, 1), (1, 1)) at the first power."""
    field, phi, module, order = golden
    root = field.real_roots[-1]
    v, closed = _attractor_data(module, root)
    u = UnitElement(v, int(v.norm()), order)
    a = multiplication_matrix(v, module)
    for r in (closed, make_nonnegative(a, u, module, root)):
        assert r.matrix == ((0, 1), (1, 1))
        assert r.power == 1
        assert mat_det(r.transform) in (1, -1)
        assert charpoly(r.matrix) == (v ** r.power).min_poly()


def test_make_nonnegative_negative_unit(golden):
    """A unit with negative image is not the Perron root of any
    non-negative conjugate of its action matrix, and the form search
    tries no power of it: find_unit returns none such."""
    field, phi, module, order = golden
    root = field.real_roots[-1]
    neg = -phi
    u = UnitElement(neg, int(neg.norm()), order)
    a = multiplication_matrix(neg, module)
    assert any(x < 0 for row in a for x in row)
    assert sign_at(neg, root) < 0
    with pytest.raises(NonnegativeFormNotFound):
        make_nonnegative(a, u, module, root)


def test_make_nonnegative_spectral_radius(golden):
    # |sigma_e(u)^k - spectral radius of A'| below 1e-9, via the Perron
    # value of the factorized matrix
    field, phi, module, order = golden
    root = field.real_roots[-1]
    v, _ = _attractor_data(module, root)
    u = UnitElement(v, int(v.norm()), order)
    a = multiplication_matrix(v, module)
    r = make_nonnegative(a, u, module, root)
    k = r.power
    perron, _ = mcf.satz12_eigenvector(r.matrix)
    eps = Fraction(1, 10 ** 12)
    lo1, hi1 = eval_embedding(u.element ** k, root, eps)
    lo2, hi2 = eval_embedding(perron, mcf.perron_embedding(perron.field), eps)
    assert abs((lo1 + hi1) / 2 - (lo2 + hi2) / 2) < Fraction(1, 10 ** 9)


def test_make_nonnegative_identity_rejected(golden):
    field, phi, module, order = golden
    root = field.real_roots[-1]
    u = UnitElement(field.one, 1, order)
    ident = multiplication_matrix(field.one, module)
    with pytest.raises(NonnegativeFormNotFound):
        make_nonnegative(ident, u, module, root)


def test_dominance_predicate(golden):
    field, phi, module, order = golden
    pos = field.real_roots[-1]
    neg = field.real_roots[0]
    assert is_dominant_at(phi, pos)
    assert not is_dominant_at(phi, neg)
    assert not is_dominant_at(field.from_rational(3), pos)


def test_cubic_unit_search_end_to_end():
    field = make_field(IntPolynomial((-1, -1, 0, 1)))
    t = field.gen
    module = module_from_generators(field, [field.one, t, t * t])
    result = hecke.af_of_module(module, len(field.real_roots) - 1)
    r = result.realization
    digits = mcf.bauer_factorize(r.matrix)
    assert mcf.convergent_matrix(digits, 3) == r.matrix
    assert charpoly(r.matrix) == (result.unit.element ** r.power).min_poly()


@st.composite
def _base_and_action(draw):
    """(base, A): base a product of elementary integer matrices, A any
    integer matrix of the same size n in 2..4."""
    n = draw(st.integers(2, 4))
    base = [list(row) for row in mat_identity(n)]
    for _ in range(draw(st.integers(0, 8))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(("add", "swap", "negate")))
        if kind == "add" and i != j:
            c = draw(st.integers(-3, 3))
            base[i] = [x + c * y for x, y in zip(base[i], base[j])]
        elif kind == "swap":
            base[i], base[j] = base[j], base[i]
        elif kind == "negate":
            base[i] = [-x for x in base[i]]
    entries = st.integers(-6, 6)
    a = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    return tuple(tuple(row) for row in base), a


@settings(max_examples=60, deadline=None)
@given(_base_and_action())
def test_signed_conjugates_match_inverse_times_action(case):
    """Every index-and-sign candidate equals (B P)^-1 A (B P), computed
    with an exact inverse, and the transform formed for it is B P."""
    base, a = case
    n = len(a)
    base_inv = mat_inverse_fraction(base)
    conjugated = mat_mul(mat_mul(base_inv, a), base)
    expected_ps = {
        tuple(tuple(signs[j] if perm[i] == j else 0 for j in range(n)) for i in range(n))
        for perm in permutations(range(n)) for signs in product((1, -1), repeat=n)
    }
    ps = []
    every_sign = list(product((1, -1), repeat=n))
    for cand, q, signs in _signed_conjugates(conjugated, every_sign):
        p = tuple(tuple(signs[j] if q[j] == i else 0 for j in range(n)) for i in range(n))
        ps.append(p)
        t = mat_mul(base, p)
        assert cand == mat_mul(mat_mul(mat_inverse_fraction(t), a), t)
        assert _times_signed_permutation(base, q, signs) == t
    assert len(ps) == len(expected_ps) and set(ps) == expected_ps


def reference_signed_conjugates(m):
    """The reference enumeration: (P^T M P, q, signs) for every signed
    permutation P, permutations outer, signs in product((1, -1)) order."""
    n = len(m)
    for perm in permutations(range(n)):
        q = [0] * n
        for i, j in enumerate(perm):
            q[j] = i
        for signs in product((1, -1), repeat=n):
            yield tuple(
                tuple(signs[i] * signs[j] * m[q[i]][q[j]] for j in range(n))
                for i in range(n)
            ), q, signs


@st.composite
def _sign_patterned_matrix(draw):
    """An n x n integer matrix, n in 2..4: often D_t N D_t for a
    non-negative N and a sign vector t, so that some class is admissible,
    with zero entries, which make several classes admissible at once."""
    n = draw(st.integers(2, 4))
    low = draw(st.sampled_from((-4, 0)))
    m = [[draw(st.integers(low, 4)) for _ in range(n)] for _ in range(n)]
    t = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(tuple(t[a] * t[b] * m[a][b] for b in range(n)) for a in range(n))


@settings(max_examples=200, deadline=None)
@given(_sign_patterned_matrix())
def test_sign_classes_keep_the_non_negative_candidates_in_order(m):
    """The candidates make_nonnegative examines are the non-negative ones
    among all signed conjugates, in the same order, with the same q and
    signs."""
    expected = [
        (cand, list(q), tuple(signs)) for cand, q, signs in reference_signed_conjugates(m)
        if all(x >= 0 for row in cand for x in row)
    ]
    got = [(cand, list(q), tuple(signs)) for cand, q, signs in _nonnegative_conjugates(m)]
    assert got == expected


@pytest.mark.parametrize("poly", [(-5, 0, 1), (-1, -1, 0, 1), (3, -5, 0, 1)])
def test_make_nonnegative_realization_is_consistent(poly):
    """The pipeline's realization has matrix = transform^-1 A^power
    transform for its unit's action matrix A, and its expansion is purely
    periodic with a period repeating to the matrix's Bauer digits."""
    field = make_field(IntPolynomial(poly))
    gens = [field.one]
    for _ in range(field.degree - 1):
        gens.append(gens[-1] * field.gen)
    module = module_from_generators(field, gens)
    result = hecke.af_of_module(module, len(field.real_roots) - 1)
    a, r = result.matrix_a, result.realization
    assert a == multiplication_matrix(result.unit.element, module)
    t = r.transform
    assert mat_mul(mat_mul(mat_inverse_fraction(t), mat_pow(a, r.power)), t) == r.matrix
    digits = tuple(mcf.bauer_factorize(r.matrix))
    period = r.roundtrip.expansion.period
    assert r.roundtrip.expansion.preperiod == ()
    assert period * (len(digits) // len(period)) == digits


def _roundtrip_candidates(monkeypatch, f):
    """The candidates make_nonnegative takes to the round trip in one
    af_of_eigenform run, in order, and the run's result (None when the
    form search finds no realization).  A cycling run takes none: its
    form is the cycle's closed form."""
    cands = []
    original = mcf.bauer_factorize

    def recorded(a):
        cands.append(a)
        return original(a)

    with monkeypatch.context() as mp:
        mp.setattr(mcf, "bauer_factorize", recorded)
        try:
            result = hecke.af_of_eigenform(f)
        except NonnegativeFormNotFound:
            result = None
    return cands, result


@pytest.mark.parametrize("spec", ["level23a@0", "level23a@1", "level71a@0", "level71a@1",
                                  "level71a@2", "level71b@0", "level71b@1", "level71b@2",
                                  "level47a@0", "level47a@2"])
def test_roundtrip_in_the_unit_field_matches_the_bare_matrix_roundtrip(monkeypatch, spec):
    """Every candidate the form search rejects, the round trip of the bare
    matrix (its own Perron field) rejects too; the realization of a
    stationary run, read off its cycle with no candidate formed, has that
    round trip's digits, expansion, char poly and eigenvector images.
    level47a's form search fails: at @0 on 48 candidates (44 that do not
    factorize, 4 whose digits are not canonical), at @2 on 24 that do not
    factorize; at @1 and @3 no candidate reaches the round trip."""
    name, index = spec.split("@")
    f = hecke.load_newform(LEVEL47A.read_text()) if name == "level47a" else hecke.load_fixture(name)
    f = dataclasses.replace(f, embedding_index=int(index))
    cands, result = _roundtrip_candidates(monkeypatch, f)
    if name != "level47a":
        assert cands == []
        record = mcf.roundtrip_record(result.realization.matrix)
        assert record.digits == result.af.digits
        assert record.expansion == result.realization.roundtrip.expansion
        assert record.perron_value.field.minpoly == result.af.char_poly
        root = result.group.root
        perron = mcf.perron_embedding(record.perron_value.field)
        eps = Fraction(1, 10 ** 30)
        for got, want in zip(result.group.theta, record.eigenvector[1:]):
            lo, hi = eval_embedding(got, root, eps)
            lo2, hi2 = eval_embedding(want, perron, eps)
            assert lo <= hi2 and lo2 <= hi
    rejections = Counter()
    for cand in cands:
        with pytest.raises((NotFactorizable, DegenerateSpectrum, RoundTripMismatch)) as exc:
            mcf.roundtrip_record(cand)
        rejections[exc.type.__name__] += 1
    if name == "level47a":
        assert result is None
        assert rejections == {"0": {"NotFactorizable": 44, "RoundTripMismatch": 4},
                              "2": {"NotFactorizable": 24}}.get(index, {})


# a totally real cubic (positive definite trace form) and x^3 - 2, whose
# trace form is indefinite
_LLL_FIELDS = [make_field(IntPolynomial(c)) for c in ((1, -2, -1, 1), (-2, 0, 0, 1))]


@st.composite
def _cubic_module(draw):
    field = draw(st.sampled_from(_LLL_FIELDS))
    rows = draw(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                         min_size=3, max_size=3))
    assume(mat_det(rows) != 0)
    den = draw(st.integers(1, 3))
    return module_from_generators(field, [[Fraction(x, den) for x in row] for row in rows])


@settings(max_examples=60, deadline=None)
@given(_cubic_module())
def test_lll_transform_is_unimodular(module):
    """make_nonnegative takes the LLL transform's inverse as an integer
    matrix with no fallback, so it must be unimodular on every full-rank
    module, whether or not the trace form is definite, and the inverse
    returned with it must be its inverse."""
    u, inverse = _lll_transform(trace_gram(module.basis_elements()))
    assert mat_det(u) in (1, -1)
    assert mat_mul(u, inverse) == mat_identity(len(u))


def _ref_lll_transform(gram):
    """_lll_transform as it was, recomputing every inner product from U and
    G on each Gram-Schmidt pass: the reference for the kept U G U^T."""
    n = len(gram)
    g = [[Fraction(x) for x in row] for row in gram]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def inner(i, j):
        return sum(u[i][a] * g[a][b] * u[j][b] for a in range(n) for b in range(n))

    def gso():
        mu = [[Fraction(0)] * n for _ in range(n)]
        bstar = [Fraction(0)] * n
        for i in range(n):
            for j in range(i):
                if bstar[j] == 0:
                    continue
                mu[i][j] = (
                    inner(i, j)
                    - sum(mu[i][t] * mu[j][t] * bstar[t] for t in range(j))
                ) / bstar[j]
            bstar[i] = inner(i, i) - sum(mu[i][t] ** 2 * bstar[t] for t in range(i))
        return mu, bstar

    k = 1
    guard = 0
    while k < n and guard < 1000:
        guard += 1
        mu, bstar = gso()
        for j in range(k - 1, -1, -1):
            q = round(mu[k][j])
            if q:
                u[k] = [a - q * b for a, b in zip(u[k], u[j])]
                mu, bstar = gso()
        if bstar[k] >= (Fraction(3, 4) - mu[k][k - 1] ** 2) * bstar[k - 1]:
            k += 1
        else:
            u[k], u[k - 1] = u[k - 1], u[k]
            k = max(k - 1, 1)
    return tuple(tuple(row) for row in u)


# the largest power k of the action matrix ref_make_nonnegative tries
_REF_K_MAX = 12


def ref_make_nonnegative(a, u, m, root, attractor):
    """make_nonnegative as it was: powers k = 1.._REF_K_MAX (even ones only
    for a unit of negative image), each in the attractor base of
    reference_attractor_data's (T, W, period, v) first, when the module's
    expansion cycled, then the identity and the LLL base; A^k by repeated
    squaring at every power, both products of each base change at every
    (power, base), u^k from scratch, and the LLL transform before any
    candidate is tried."""
    n = len(a)
    s = sign_at(u.element, root)
    k_start, k_step = (1, 1) if s > 0 else (2, 2)
    ident = mat_identity(n)
    bases = []
    if attractor is not None:
        bases.append(attractor[:2])
    bases.append((ident, ident))
    basis = m.basis_elements()
    u_lll, inv = _lll_transform(trace_gram(basis))
    if u_lll != ident:
        bases.append((inv, u_lll))
    seen = set()
    found_nonneg = False
    for k in range(k_start, _REF_K_MAX + 1, k_step):
        ak = mat_pow(a, k)
        u_pow = u.element ** k
        perron = None
        for base, base_inv in bases:
            conjugated = mat_mul(mat_mul(base_inv, ak), base)
            for cand, q, signs in _nonnegative_conjugates(conjugated):
                if cand in seen:
                    continue
                seen.add(cand)
                if cand == ident:
                    continue
                found_nonneg = True
                if perron is None:
                    perron = units._is_top_real_root(u_pow, ak, root)
                if not perron:
                    continue
                try:
                    digits = tuple(mcf.bauer_factorize(cand))
                except NotFactorizable:
                    continue
                if not is_primitive(cand):
                    continue
                lam = [sign * mcf._combination(base_inv[i], basis, m.field)
                       for sign, i in zip(signs, q)]
                scale = lam[0].inverse()
                try:
                    roundtrip = mcf.check_period(digits, u_pow, tuple(v * scale for v in lam), root)
                except RoundTripMismatch:
                    continue
                transform = _times_signed_permutation(base, q, signs)
                return units.Realization(cand, k, transform, roundtrip)
    if found_nonneg:
        raise NonnegativeFormNotFound(
            "non-negative forms exist but none passed the Perron/canonical "
            f"cycle checks within k <= {_REF_K_MAX}"
        )
    raise NonnegativeFormNotFound(
        f"no non-negative conjugate of a power up to {_REF_K_MAX} found"
    )


def ref_find_unit(order, root, attractor):
    """find_unit as it was: the return unit of reference_attractor_data's
    (T, W, period, v) when it passes the unit checks (norm +-1, v and v^-1
    in the order, image > 1), else the shell search."""
    if attractor is not None:
        v = attractor[3]
        nrm = v.norm()
        if (nrm in (1, -1) and order.contains(v) and order.contains(v.inverse())
                and sign_at(v - order.field.one, root) > 0):
            return UnitElement(v, int(nrm), order)
    return find_unit(order, root)


def _reference_budget(m):
    """The expansion budget of _attractor_data at m's rank."""
    return 4096 if len(m.basis_elements()) == 2 else 512


def _agrees_with_the_old_search(got, want):
    """Whether got, the pipeline's (unit, Realization) or (error class,
    message), agrees with want, the old search's: the same unit and
    Realization wherever the old search realized, NonnegativeFormNotFound
    wherever it raised that, and else the same error."""
    if want[0] is NonnegativeFormNotFound:
        return got[0] is NonnegativeFormNotFound
    return got == want


def _form_search_outcomes(m, root):
    """The pipeline's and the old search's outcomes on m at root: the unit
    and Realization of af_of_module, or the typed error's class and
    message, against ref_make_nonnegative on ref_find_unit's unit, both
    given reference_attractor_data's (T, W, period, v); None when the unit
    search finds no unit."""
    attractor = reference_attractor_data(m, root, _reference_budget(m))
    outcomes = []
    try:
        result = hecke.af_of_module(m, m.field.real_roots.index(root))
        outcomes.append((result.unit, result.realization))
    except UnitNotFound:
        return None
    except HeckeafError as exc:
        outcomes.append((type(exc), str(exc)))
    u = ref_find_unit(endomorphism_ring(m), root, attractor)
    a = multiplication_matrix(u.element, m)
    try:
        outcomes.append((u, ref_make_nonnegative(a, u, m, root, attractor)))
    except HeckeafError as exc:
        outcomes.append((type(exc), str(exc)))
    return outcomes


@settings(max_examples=40, deadline=None)
@given(abc=st.tuples(*[st.integers(-8, 8)] * 3).filter(irreducible_totally_real),
       rows=st.sampled_from(CUBIC_FAMILIES), index=st.integers(0, 2))
@example(abc=(-4, -3, 1), rows=CUBIC_FAMILIES[1], index=0)  # cycles: a realization
@example(abc=(6, 0, -1), rows=CUBIC_FAMILIES[0], index=2)  # forms, none passes
@example(abc=(6, 0, -1), rows=CUBIC_FAMILIES[1], index=0)  # no non-negative form
@example(abc=(5, 2, -6), rows=CUBIC_FAMILIES[0], index=2)  # realizes in the identity base only
@example(abc=(-5, 2, 4), rows=CUBIC_FAMILIES[2], index=2)  # realizes in the LLL base only
def test_make_nonnegative_matches_the_recomputing_reference(abc, rows, index):
    """Searching the identity and LLL bases at the first power only, and
    reading a cycling run's form off its cycle, realize wherever the old
    search over powers k <= 12 realized: on drawn cubic modules, cycling
    or not, the unit and the Realization are equal field by field to the
    old search's, a NonnegativeFormNotFound of the old search is one here
    too, and any other error has the same class and message.  Each base
    is the only one to realize at one example.  The unit search runs
    under a smaller budget, and a module it finds no unit of is
    skipped."""
    a, b, c = abc
    k = make_field(IntPolynomial((c, b, a, 1)))
    module = module_from_generators(k, [k.element(row) for row in rows])
    with patch.object(units, "_MAX_CANDIDATES", 20_000):
        outcomes = _form_search_outcomes(module, k.real_roots[index])
    if outcomes is not None:
        assert _agrees_with_the_old_search(*outcomes)


@pytest.mark.parametrize("index", range(4))
def test_make_nonnegative_matches_the_recomputing_reference_on_level47a(index):
    """level47a's form searches, at each of its four embeddings, end in
    NonnegativeFormNotFound, as the reference's do."""
    f = hecke.load_newform(LEVEL47A.read_text())
    root = f.field.real_roots[index]
    got, want = _form_search_outcomes(hecke.module_of_eigenform(f), root)
    assert want[0] is NonnegativeFormNotFound
    assert _agrees_with_the_old_search(got, want)


def _closed_form_matches_the_old_search(m, index):
    """On a cycling run, the pipeline agrees with the old search from the
    same expansion (ref_find_unit, then ref_make_nonnegative): where that
    realized, the pipeline returns its unit and realization field by
    field (the matrix C(period) at power 1, the transform T, and the
    round trip's digits, Perron value, eigenvector and expansion), and
    they are _attractor_data's (v, Realization)."""
    root = m.field.real_roots[index]
    cycle = units._attractor_data(m, root)
    assert cycle is not None
    got, want = _form_search_outcomes(m, root)
    assert _agrees_with_the_old_search(got, want)
    if isinstance(want[1], units.Realization):
        unit, realization = got
        assert cycle == (unit.element, realization)


@settings(max_examples=60, deadline=None)
@given(d=st.integers(2, 10 ** 4).filter(lambda d: isqrt(d) ** 2 != d),
       gens=st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda t: t[0] * t[3] != t[1] * t[2]),
       index=st.integers(0, 1))
def test_closed_form_matches_the_old_search_on_quadratic_modules(d, gens, index):
    """Every module Z(a + b sqrt d) + Z(a' + b' sqrt d), coordinates in
    -3..3, cycles at either embedding, and its closed form is the old
    search's realization."""
    k = make_field(IntPolynomial((-d, 0, 1)))
    a, b, a2, b2 = gens
    module = module_from_generators(k, [k.element([a, b]), k.element([a2, b2])])
    _closed_form_matches_the_old_search(module, index)


@settings(max_examples=20, deadline=None)
@given(abc=st.tuples(*[st.integers(-8, 8)] * 3).filter(irreducible_totally_real))
@example(abc=(-4, -3, 1))  # Z+Za+2Za^2 at embedding 0 is not its own ring and cycles
def test_closed_form_matches_the_old_search_on_cubic_families(abc):
    """Every embedding of every cubic family at which the module's
    expansion cycles gives the old search's realization in closed form."""
    a, b, c = abc
    k = make_field(IntPolynomial((c, b, a, 1)))
    for rows in CUBIC_FAMILIES:
        module = module_from_generators(k, [k.element(row) for row in rows])
        for index, root in enumerate(k.real_roots):
            if units._attractor_data(module, root) is not None:
                _closed_form_matches_the_old_search(module, index)


_STATIONARY = ["level23a@0", "level23a@1", "level71a@0", "level71a@1", "level71a@2",
               "level71b@0", "level71b@1", "level71b@2"]


@pytest.mark.parametrize("spec", _STATIONARY)
def test_closed_form_matches_the_old_search_on_bundled_runs(spec):
    """The 8 bundled stationary runs realize in closed form, as the old
    search realized them."""
    name, index = spec.split("@")
    _closed_form_matches_the_old_search(
        hecke.module_of_eigenform(hecke.load_fixture(name)), int(index))


def test_cycle_form_must_be_primitive(monkeypatch):
    """Primitivity is the one fact of a cycle's closed form the expansion
    does not give (_attractor_data, claim 4): with it reported false, a
    cycling run ends in NonnegativeFormNotFound naming the period."""
    f = hecke.load_fixture("level71a")
    period = hecke.af_of_eigenform(f).af.digits
    monkeypatch.setattr(units, "is_primitive", lambda m: False)
    with pytest.raises(NonnegativeFormNotFound, match=re.escape(f"cycle {period} is not primitive")):
        hecke.af_of_eigenform(f)


def test_cycle_form_must_be_the_units_action_in_its_basis(monkeypatch):
    """A cycle's form transposed is still non-negative, unimodular and
    primitive, but not T^-1 A T for the unit's action matrix A: A T == T M
    fails, and the run ends in NonnegativeFormNotFound naming the period."""
    f = hecke.load_fixture("level71a")
    period = hecke.af_of_eigenform(f).af.digits
    original = units._attractor_data

    def transposed(m, root, *args):
        v, r = original(m, root, *args)
        m_t = tuple(zip(*r.matrix))
        assert m_t != r.matrix and is_primitive(m_t)
        return v, dataclasses.replace(r, matrix=m_t)

    monkeypatch.setattr(hecke, "_attractor_data", transposed)
    with pytest.raises(NonnegativeFormNotFound, match=re.escape(f"cycle {period} is not T^-1 A T")):
        hecke.af_of_eigenform(f)


# totally real fields of degree 2 to 5 (definite trace forms) and x^3 - 2
# and x^4 - 2 (indefinite ones)
_GRAM_FIELDS = [make_field(IntPolynomial(c)) for c in (
    (-5, 0, 1), (1, -2, -1, 1), (1, 0, -10, 0, 1), (1, 3, -3, -4, 1, 1),
    (-2, 0, 0, 1), (-2, 0, 0, 0, 1))]


@st.composite
def _trace_gram(draw):
    field = draw(st.sampled_from(_GRAM_FIELDS))
    n = field.degree
    rows = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    assume(mat_det(rows) != 0)
    den = draw(st.integers(1, 3))
    module = module_from_generators(field, [[Fraction(x, den) for x in row] for row in rows])
    return trace_gram(module.basis_elements())


@st.composite
def _integer_gram(draw):
    """The Gram matrix B B^T of random integer rows B, singular ones
    included (some b*_j = 0 there)."""
    n = draw(st.integers(2, 5))
    b = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                      min_size=n, max_size=n))
    return [[sum(x * y for x, y in zip(r, s)) for s in b] for r in b]


@settings(max_examples=80, deadline=None)
@given(st.one_of(_trace_gram(), _integer_gram()))
@example([[1, 1, 0], [1, 1, 0], [0, 0, 1]])  # rows e1, e1, e2: b*_1 = 0
def test_lll_transform_matches_the_recomputing_reference(gram):
    """Keeping U G U^T current under each row operation and swap gives the
    U of recomputing every inner product, on trace forms of degree 2 to 5
    (definite and indefinite) and on random integer Gram matrices, where
    some b*_j vanish; the inverse carried along is the one Gauss-Jordan
    elimination over the rationals gives."""
    u, inverse = _lll_transform(gram)
    assert u == _ref_lll_transform(gram)
    assert inverse == tuple(tuple(int(x) for x in row) for row in mat_inverse_fraction(u))
