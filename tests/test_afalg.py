import json
import random
from fractions import Fraction

import pytest

from heckeaf import afalg, mcf
from heckeaf.errors import ShapeMismatch
from heckeaf.exactnum import IntPolynomial, make_field
from heckeaf.exactnum.intmat import charpoly

from util import admissible_digits


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
    assert afalg.cone_contains(g, (1, 0))
    assert afalg.cone_contains(g, (0, 0))
    assert not afalg.cone_contains(g, (-1, 1))
    assert afalg.cone_contains(g, (1, -1))
    assert not afalg.cone_contains(g, (-2, 3))
    # the order unit is interior
    assert afalg.cone_contains(g, g.order_unit)


def test_cone_is_a_cone(golden_group):
    rng = random.Random(31)
    g = golden_group
    inside = []
    while len(inside) < 60:
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        if afalg.cone_contains(g, x):
            inside.append(x)
    for i in range(0, 60, 2):
        a, b = inside[i], inside[i + 1]
        assert afalg.cone_contains(g, (a[0] + b[0], a[1] + b[1]))
        k = rng.randint(0, 5)
        assert afalg.cone_contains(g, (k * a[0], k * a[1]))


def test_cone_unperforation_witness(golden_group):
    rng = random.Random(37)
    g = golden_group
    for _ in range(120):
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        k = rng.randint(1, 6)
        if afalg.cone_contains(g, (k * x[0], k * x[1])):
            assert afalg.cone_contains(g, x)


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
    back = afalg.parse_bratteli_json(afalg.export_bratteli(af, "json"))
    assert back.period_matrix == af.period_matrix
    assert back.char_poly == af.char_poly
    assert back.digits == af.digits

    diagram = afalg.af_from_expansion(mcf.regular_cf(Fraction(355, 113)))
    assert afalg.parse_bratteli_json(afalg.export_bratteli(diagram, "json")) == diagram

    trivial = afalg.TrivialAF()
    assert afalg.parse_bratteli_json(afalg.export_bratteli(trivial, "json")) == trivial
    assert '"type": "trivial"' in afalg.export_bratteli(trivial, "json")


@pytest.mark.parametrize("digits", [[["7"]], [], [["1"], ["1"]], [["1", "1"]], [["-1"]]])
def test_import_rejects_digits_that_do_not_give_the_matrix(digits):
    text = json.dumps({
        "type": "stationary",
        "period_matrix": [["0", "1"], ["1", "2"]],
        "digits": digits,
    })
    with pytest.raises(ShapeMismatch):
        afalg.parse_bratteli_json(text)


def test_dot_export():
    e = mcf.JpaExpansion(2, (), ((1,),), False)
    af = afalg.af_from_expansion(e)
    dot = afalg.export_bratteli(af, "dot", stationary_levels=5)
    assert dot.startswith("digraph bratteli")
    assert dot.count("rank=same") == 5
    # block [[0,1],[1,1]]: multiplicities 0,1,1,1 -> three edges per level
    assert dot.count("->") == 3 * 4

    diagram = afalg.af_from_expansion(mcf.regular_cf(Fraction(355, 113)))
    dot = afalg.export_bratteli(diagram, "dot")
    assert dot.count("rank=same") == 4  # the Euclid ladder has 4 levels

    with pytest.raises(ValueError):
        afalg.export_bratteli(af, "svg")
