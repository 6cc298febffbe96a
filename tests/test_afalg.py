import json
import random
from fractions import Fraction

import pytest
import sympy

from heckeaf import afalg, mcf
from heckeaf.errors import ShapeMismatch
from heckeaf.exactnum import IntPolynomial, make_field
from heckeaf.exactnum.intmat import charpoly, mat_inverse_fraction, mat_mul

from util import admissible_digits, cone_contains, parse_bratteli_json, random_unimodular

X = sympy.symbols("x")


@pytest.fixture(scope="module")
def golden_group():
    field = make_field(IntPolynomial((-1, -1, 1)))
    return afalg.dimension_group((field.gen,), field.real_roots[-1])


def test_af_from_expansion_stationary():
    e = mcf.JpaExpansion(2, (), ((1,),), False)
    af = afalg.af_from_expansion(e)
    assert isinstance(af, afalg.StationaryAF)
    assert af.period_matrix == ((0, 1), (1, 1))
    assert af.char_poly == IntPolynomial((-1, -1, 1))

    e2 = mcf.JpaExpansion(2, (), ((2,),), False)
    af2 = afalg.af_from_expansion(e2)
    assert af2.period_matrix == ((0, 1), (1, 2))
    assert af2.char_poly == IntPolynomial((-1, -2, 1))


def test_af_from_expansion_finite_and_trivial():
    e = mcf.regular_cf(Fraction(355, 113))
    diagram = afalg.af_from_expansion(e)
    assert isinstance(diagram, afalg.BratteliDiagram)
    assert diagram.levels == 4
    assert diagram.complete

    assert afalg.af_from_expansion(mcf.JpaExpansion(1, (), (), True)) == afalg.TrivialAF()

    # budget exhaustion: representable but flagged incomplete
    partial = mcf.JpaExpansion(2, ((1,), (2,)), (), False)
    diagram = afalg.af_from_expansion(partial)
    assert isinstance(diagram, afalg.BratteliDiagram)
    assert not diagram.complete


def test_dimension_group_examples(golden_group):
    g = golden_group
    assert g.rank == 2
    assert g.order_unit == (0, 1)
    assert cone_contains(g, (1, 0))
    assert cone_contains(g, (0, 0))
    assert not cone_contains(g, (-1, 1))
    assert cone_contains(g, (1, -1))
    assert not cone_contains(g, (-2, 3))
    # the order unit is interior
    assert cone_contains(g, g.order_unit)


def test_cone_is_a_cone(golden_group):
    rng = random.Random(31)
    g = golden_group
    inside = []
    while len(inside) < 60:
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        if cone_contains(g, x):
            inside.append(x)
    for i in range(0, 60, 2):
        a, b = inside[i], inside[i + 1]
        assert cone_contains(g, (a[0] + b[0], a[1] + b[1]))
        k = rng.randint(0, 5)
        assert cone_contains(g, (k * a[0], k * a[1]))


def test_cone_unperforation_witness(golden_group):
    rng = random.Random(37)
    g = golden_group
    for _ in range(120):
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        k = rng.randint(1, 6)
        if cone_contains(g, (k * x[0], k * x[1])):
            assert cone_contains(g, x)


def test_companion_check_verdicts():
    b = ((0, 1), (1, 1))
    assert afalg.companion_check(b, b) == afalg.VERDICT_SIMILAR_Q
    assert afalg.companion_check(b, ((0, 1), (1, 2))) == afalg.VERDICT_DISTINCT

    # equal char poly (x-1)^2 but different invariant factors
    jordan = ((1, 1), (0, 1))
    ident = ((1, 0), (0, 1))
    assert afalg.companion_check(jordan, ident) == afalg.VERDICT_COMPANION

    # equal squarefree char poly x^2 - 2, conjugator found by the search
    assert afalg.companion_check(((0, 2), (1, 0)), ((0, 1), (2, 0))) == afalg.VERDICT_SIMILAR_Q

    with pytest.raises(ShapeMismatch):
        afalg.companion_check(b, ((1,),))


def test_companion_check_is_symmetric():
    pairs = [
        (((0, 1), (1, 1)), ((0, 1), (1, 2))),
        (((0, 2), (1, 0)), ((0, 1), (2, 0))),
        (((1, 1), (0, 1)), ((1, 0), (0, 1))),
    ]
    for b1, b2 in pairs:
        assert afalg.companion_check(b1, b2) == afalg.companion_check(b2, b1)


def test_matrix_is_never_its_own_companion():
    for m in (((0, 1), (1, 1)), ((2, 5), (5, 12)), ((1, 1), (0, 1))):
        assert afalg.companion_check(m, m) != afalg.VERDICT_COMPANION


def test_undetermined_z_similarity():
    # char poly x^2 + 5: two ideal classes, matrices Q-similar but the
    # bounded integer search finds no unimodular conjugator
    b1 = ((0, -5), (1, 0))
    b2 = ((1, -3), (2, -1))
    assert charpoly(b1) == charpoly(b2) == IntPolynomial((5, 0, 1))
    verdict = afalg.companion_check(b1, b2)
    assert verdict in (afalg.VERDICT_UNDETERMINED, afalg.VERDICT_SIMILAR_Q)
    # and for this classical pair the classes really are distinct
    assert verdict == afalg.VERDICT_UNDETERMINED


# -- Q-similarity against the Smith form over Q[x] ---------------------------------

def _trim(p):
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return p


def _psub_mul(p, q, r):
    """p - q r over Q, trimmed."""
    out = list(p) + [Fraction(0)] * max(0, len(q) + len(r) - 1 - len(p))
    for i, a in enumerate(q):
        for j, b in enumerate(r):
            out[i + j] -= a * b
    return _trim(out)


def _pdivmod(p, q):
    rem = list(p)
    quo = [Fraction(0)] * max(1, len(p) - len(q) + 1)
    while any(rem) and len(rem) >= len(q):
        shift = len(rem) - len(q)
        factor = rem[-1] / q[-1]
        quo[shift] += factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        _trim(rem)
    return _trim(quo), rem


def ref_invariant_factors(a):
    """Invariant factors of xI - A over Q[x], monic, constants dropped: the
    Smith normal form on Fraction polynomials that decided Q-similarity
    before the commutant ranks did."""
    n = len(a)
    m = [[[Fraction(-a[i][j])] + ([Fraction(1)] if i == j else []) for j in range(n)]
         for i in range(n)]
    factors = []
    top = 0
    while top < n:
        bi, bj = min(((i, j) for i in range(top, n) for j in range(top, n) if any(m[i][j])),
                     key=lambda ij: len(m[ij[0]][ij[1]]))
        m[top], m[bi] = m[bi], m[top]
        for row in m:
            row[top], row[bj] = row[bj], row[top]
        pivot = m[top][top]
        dirty = False
        for i in range(top + 1, n):
            q, _ = _pdivmod(m[i][top], pivot)
            for j in range(top, n):
                m[i][j] = _psub_mul(m[i][j], q, m[top][j])
            dirty |= any(m[i][top])
        for j in range(top + 1, n):
            q, _ = _pdivmod(m[top][j], pivot)
            for i in range(top, n):
                m[i][j] = _psub_mul(m[i][j], q, m[i][top])
            dirty |= any(m[top][j])
        if dirty:
            continue  # remainders of smaller degree appeared; re-pick the pivot
        offender = next((i for i in range(top + 1, n) for j in range(top + 1, n)
                         if any(_pdivmod(m[i][j], pivot)[1])), None)
        if offender is not None:
            # fold the offending row in; the next pass shrinks the pivot
            m[top] = [_psub_mul(x, [Fraction(-1)], y) for x, y in zip(m[top], m[offender])]
            continue
        factors.append([c / pivot[-1] for c in pivot])
        top += 1
    return [f for f in factors if len(f) > 1]


def sympy_invariant_factors(a):
    from sympy.matrices.normalforms import invariant_factors

    m = X * sympy.eye(len(a)) - sympy.Matrix(a)
    out = [sympy.Poly(f, X).monic() for f in invariant_factors(m, domain=sympy.QQ[X])]
    return [[Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs())]
            for f in out if f.degree() >= 1]


# x - 1, x + 1, x - 2, x^2 - x - 1, x^2 + 1, lowest first
_FACTORS = ((-1, 1), (1, 1), (-2, 1), (-1, -1, 1), (1, 0, 1))


def _block(group, rng):
    """A Jordan block for a group of equal linear factors (sometimes), else
    the companion matrix of the group's product."""
    k = len(group)
    if len(group[0]) == 2 and len(set(group)) == 1 and rng.random() < 0.5:
        return [[-group[0][0] if i == j else int(j == i + 1) for j in range(k)]
                for i in range(k)]
    poly = (1,)
    for f in group:
        poly = tuple(sum(poly[i] * f[t - i] for i in range(len(poly)) if 0 <= t - i < len(f))
                     for t in range(len(poly) + len(f) - 1))
    d = len(poly) - 1
    return [[int(i == j + 1) if j < d - 1 else -poly[i] for j in range(d)] for i in range(d)]


def _drawn_matrix(factors, rng):
    """A unimodular conjugate of a block-diagonal matrix whose blocks
    split the factors into random groups."""
    order = list(factors)
    rng.shuffle(order)
    groups, start = [], 0
    while start < len(order):
        end = rng.randint(start + 1, len(order))
        groups.append(order[start:end])
        start = end
    n = sum(len(f) - 1 for f in factors)
    b = [[0] * n for _ in range(n)]
    at = 0
    for group in groups:
        blk = _block(group, rng)
        for i, row in enumerate(blk):
            b[at + i][at:at + len(row)] = row
        at += len(blk)
    u = random_unimodular(n, rng, steps=6)
    u_inv = tuple(tuple(int(x) for x in row) for row in mat_inverse_fraction(u))
    return mat_mul(mat_mul(u, tuple(map(tuple, b))), u_inv)


def test_companion_verdict_matches_the_smith_form():
    """companion_check calls a pair with equal char polys companion
    exactly when sympy's invariant factors of xI - A over Q[x], and those
    of the Fraction Smith form it replaced, differ; both outcomes occur."""
    rng = random.Random(2024)
    outcomes = set()
    for _ in range(60):
        n = rng.randint(2, 4)
        pool = [f for f in _FACTORS[:rng.randint(1, len(_FACTORS))]]
        factors = []
        while sum(len(f) - 1 for f in factors) < n:
            fits = [f for f in pool if len(f) - 1 <= n - sum(len(g) - 1 for g in factors)]
            factors.append(rng.choice(fits or [_FACTORS[0]]))
        b1, b2 = _drawn_matrix(factors, rng), _drawn_matrix(factors, rng)
        assert charpoly(b1) == charpoly(b2)
        similar = sympy_invariant_factors(b1) == sympy_invariant_factors(b2)
        for b in (b1, b2):
            assert ref_invariant_factors(b) == sympy_invariant_factors(b)
        verdict = afalg.companion_check(b1, b2)
        assert (verdict != afalg.VERDICT_COMPANION) == similar
        assert verdict != afalg.VERDICT_DISTINCT
        outcomes.add(similar)
    assert outcomes == {True, False}


def test_charpoly_invariant_under_digit_rotation():
    rng = random.Random(53)
    for _ in range(40):
        n = rng.choice([2, 3, 4])
        digits = admissible_digits(rng, n, rng.randint(2, 6))
        base = charpoly(mcf.convergent_matrix(digits, n))
        for r in range(1, len(digits)):
            rotated = digits[r:] + digits[:r]
            assert charpoly(mcf.convergent_matrix(rotated, n)) == base


def test_export_import_roundtrip():
    e = mcf.JpaExpansion(2, (), ((1,),), False)
    af = afalg.af_from_expansion(e)
    back = parse_bratteli_json(afalg.export_bratteli(af, "json"))
    assert back.period_matrix == af.period_matrix
    assert back.char_poly == af.char_poly
    assert back.digits == af.digits

    diagram = afalg.af_from_expansion(mcf.regular_cf(Fraction(355, 113)))
    assert parse_bratteli_json(afalg.export_bratteli(diagram, "json")) == diagram

    trivial = afalg.TrivialAF()
    assert parse_bratteli_json(afalg.export_bratteli(trivial, "json")) == trivial
    assert '"type": "trivial"' in afalg.export_bratteli(trivial, "json")


@pytest.mark.parametrize("digits", [[["7"]], [], [["1"], ["1"]], [["1", "1"]], [["-1"]]])
def test_import_rejects_digits_that_do_not_give_the_matrix(digits):
    text = json.dumps({
        "type": "stationary",
        "period_matrix": [["0", "1"], ["1", "2"]],
        "digits": digits,
    })
    with pytest.raises(ShapeMismatch):
        parse_bratteli_json(text)


_STATIONARY = {"type": "stationary", "period_matrix": [["0", "1"], ["1", "1"]], "digits": [["1"]]}
_FINITE = {"type": "finite", "vertex_counts": [1, 2], "matrices": [[["1"], ["1"]]]}


@pytest.mark.parametrize("payload", [
    [_STATIONARY],  # a JSON list, not an object
    {k: v for k, v in _STATIONARY.items() if k != "period_matrix"},
    {k: v for k, v in _STATIONARY.items() if k != "digits"},
    {k: v for k, v in _FINITE.items() if k != "vertex_counts"},
    {k: v for k, v in _FINITE.items() if k != "matrices"},
    dict(_STATIONARY, period_matrix=[["0", "1"], ["1", "x"]]),
    dict(_STATIONARY, digits=[["1.0"]]),
    dict(_STATIONARY, digits=["1"]),
    dict(_FINITE, vertex_counts=[1, "two"]),
    dict(_FINITE, matrices=[[["1"], [True]]]),
    dict(_FINITE, complete="no"),
    dict(_FINITE, complete=1),
    {"type": "cyclic"},
])
def test_import_rejects_a_payload_that_is_not_a_diagram(payload):
    """Each payload is _STATIONARY or _FINITE, both diagrams, with one fault."""
    assert parse_bratteli_json(json.dumps(_STATIONARY)).period_matrix == ((0, 1), (1, 1))
    assert parse_bratteli_json(json.dumps(_FINITE)).vertex_counts == (1, 2)
    with pytest.raises(ShapeMismatch):
        parse_bratteli_json(json.dumps(payload))


def test_import_rejects_text_that_is_not_json():
    with pytest.raises(ShapeMismatch, match="not valid JSON"):
        parse_bratteli_json('{"type": "trivial"')


def test_dot_export():
    e = mcf.JpaExpansion(2, (), ((1,),), False)
    af = afalg.af_from_expansion(e)
    dot = afalg.export_bratteli(af, "dot")
    assert dot.startswith("digraph bratteli")
    assert dot.count("rank=same") == 5
    # block [[0,1],[1,1]]: multiplicities 0,1,1,1 -> three edges per level
    assert dot.count("->") == 3 * 4

    diagram = afalg.af_from_expansion(mcf.regular_cf(Fraction(355, 113)))
    dot = afalg.export_bratteli(diagram, "dot")
    assert dot.count("rank=same") == 4  # the Euclid ladder has 4 levels

    with pytest.raises(ValueError):
        afalg.export_bratteli(af, "svg")
