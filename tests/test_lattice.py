import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from heckeaf import hecke
from heckeaf.errors import NotFullRank
from heckeaf.exactnum import field as field_module, lattice
from heckeaf.exactnum import (
    IntPolynomial,
    endomorphism_ring,
    make_field,
    module_from_generators,
    module_intersect,
)
from heckeaf.exactnum.intmat import row_hnf_transform, mat_mul, mat_det

from util import random_unimodular, random_element


@pytest.fixture(scope="module")
def sqrt5():
    return make_field(IntPolynomial((-5, 0, 1)))


def test_hnf_is_canonical_and_unimodular():
    rows = [[2, 0], [1, 1]]
    h, u, rank = row_hnf_transform(rows)
    assert rank == 2
    assert mat_det(u) in (1, -1)
    assert mat_mul(u, tuple(tuple(r) for r in rows))[:rank] == h
    # uniqueness: reordering generators leaves the form unchanged
    assert row_hnf_transform([[1, 1], [2, 0]])[0] == h


def test_module_examples(sqrt5):
    one, s5 = sqrt5.one, sqrt5.gen
    m = module_from_generators(sqrt5, [one, s5])
    assert m.rows == ((1, 0), (0, 1)) and m.den == 1

    # redundant generators reduce to the canonical form; oracle by hand:
    # integer row reduction of [[2,0],[1,1],[0,3]] gives the unit lattice
    m2 = module_from_generators(sqrt5, [sqrt5.from_rational(2), one + s5, 3 * s5])
    assert m2 == m

    with pytest.raises(NotFullRank):
        module_from_generators(sqrt5, [one, sqrt5.from_rational(2)])


def test_membership_and_coordinates(sqrt5):
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))
    m = module_from_generators(sqrt5, [sqrt5.one, phi])
    assert m.contains(sqrt5.one)
    assert m.contains(phi * 7 - 3)
    assert not m.contains(sqrt5.gen / 2)
    coords = m.coordinates_of(phi + 2)
    basis = m.basis_elements()
    rebuilt = sqrt5.zero
    for c, b in zip(coords, basis):
        rebuilt = rebuilt + c * b
    assert rebuilt == phi + 2


def test_canonicalization_under_unimodular_changes(sqrt5):
    rng = random.Random(23)
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))
    gens = [sqrt5.one, phi]
    base = module_from_generators(sqrt5, gens)
    for _ in range(50):
        u = random_unimodular(2, rng)
        new_gens = []
        for row in u:
            acc = sqrt5.zero
            for c, g in zip(row, gens):
                acc = acc + c * g
            new_gens.append(acc)
        assert module_from_generators(sqrt5, new_gens) == base


def test_endomorphism_ring_examples(sqrt5):
    one, s5 = sqrt5.one, sqrt5.gen
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))

    m = module_from_generators(sqrt5, [one, phi])
    o = endomorphism_ring(m)
    assert o.module == module_from_generators(sqrt5, [one, phi])
    assert o.contains(phi) and o.contains(one)

    m2 = module_from_generators(sqrt5, [one, s5])
    o2 = endomorphism_ring(m2)
    assert o2.module == m2
    assert not o2.contains(phi)

    rationals = make_field(IntPolynomial((-1, 1)))
    mz = module_from_generators(rationals, [rationals.one])
    assert endomorphism_ring(mz).module == mz


def test_endomorphism_ring_against_brute_force(sqrt5):
    # m = Z + Z*(sqrt5/2): scan small denominators for stabilizing elements
    m = module_from_generators(sqrt5, [sqrt5.one, sqrt5.gen / 2])
    o = endomorphism_ring(m)
    found = []
    for a in range(-8, 9):
        for b in range(-8, 9):
            alpha = sqrt5.element((Fraction(a, 2), Fraction(b, 2)))
            if all(m.contains(alpha * g) for g in m.basis_elements()):
                found.append(alpha)
    assert module_from_generators(sqrt5, found) == o.module


def test_order_closure_property(sqrt5):
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))
    for gens in ([sqrt5.one, phi], [sqrt5.one, sqrt5.gen]):
        m = module_from_generators(sqrt5, gens)
        o = endomorphism_ring(m)
        basis = o.basis_elements()
        for a in basis:
            for b in basis:
                assert o.contains(a * b)
            for g in m.basis_elements():
                assert m.contains(a * g)


def test_module_intersection(sqrt5):
    one, s5 = sqrt5.one, sqrt5.gen
    phi = sqrt5.element((Fraction(1, 2), Fraction(1, 2)))
    m1 = module_from_generators(sqrt5, [one, phi])
    m2 = module_from_generators(sqrt5, [one, s5])
    inter = module_intersect(m1, m2)
    # Z[sqrt5] is an index-2 suborder of Z[phi], so the intersection is it
    assert inter == m2
    rng = random.Random(3)
    for _ in range(10):
        a = random_element(sqrt5, rng, span=6)
        if inter.contains(a):
            assert m1.contains(a) and m2.contains(a)


def test_cubic_power_order_is_its_own_endomorphism_ring():
    field = make_field(IntPolynomial((-1, -1, 0, 1)))
    t = field.gen
    m = module_from_generators(field, [field.one, t, t * t])
    assert endomorphism_ring(m).module == m


LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"


def reference_endomorphism_ring(m):
    """End(m) by its definition: the intersection of the modules m g^(-1)
    over the basis elements g of m, whether or not m is a ring."""
    result = None
    for g in m.basis_elements():
        cand = m.scaled_by(g.inverse())
        result = cand if result is None else module_intersect(result, cand)
    return result


def _fixture_modules():
    """The module of every bundled fixture and of level47a."""
    fixtures = [hecke.load_fixture(name) for name in hecke.bundled_fixture_names()]
    fixtures.append(hecke.load_newform(json.loads(LEVEL47A.read_text())))
    return [hecke.module_of_eigenform(f) for f in fixtures]


def _drawn_modules(rng):
    """Z[alpha] for drawn integral alpha of full degree, and drawn modules
    with integer or half-integer generators, in the fields of the
    fixtures of degree >= 2."""
    out = []
    for field in dict.fromkeys(m.field for m in _fixture_modules() if m.field.degree >= 2):
        n = field.degree
        for _ in range(6):
            alpha = field.element([rng.randint(-4, 4) for _ in range(n)])
            if alpha.degree_over_q() == n:
                powers = [field.one]
                for _ in range(n - 1):
                    powers.append(powers[-1] * alpha)
                out.append(module_from_generators(field, powers))
            gens = [field.element([Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2)))
                                   for _ in range(n)]) for _ in range(n + 1)]
            try:
                out.append(module_from_generators(field, gens))
            except NotFullRank:
                pass
        rows = [[int(i == j) * (2 if i == n - 1 else 1) for j in range(n)] for i in range(n)]
        out.append(module_from_generators(field, rows))
    return out


def test_endomorphism_ring_is_the_intersection_of_the_scaled_modules():
    """On the fixture modules, drawn Z[alpha] (each its own ring) and drawn
    modules that are not rings, such as Z + Z a + 2Z a^2 in the power
    basis, endomorphism_ring reads the reference's canonical module."""
    modules = _fixture_modules() + _drawn_modules(random.Random(27))
    rings = 0
    for m in modules:
        order = endomorphism_ring(m).module
        assert order == reference_endomorphism_ring(m), m
        rings += order == m
    assert rings >= 10 and len(modules) - rings >= 10


def test_ring_modules_are_their_own_order_with_no_inverse(monkeypatch):
    """A module that is a ring (every fixture module) is read as its own
    order with no field inverse and no intersection; Z + Z a + 2Z a^2 in
    level71a's field, not a ring, takes the intersection."""
    calls = {"inverse": 0, "module_intersect": 0}
    for owner, name in ((field_module.FieldElement, "inverse"), (lattice, "module_intersect")):
        original = getattr(owner, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    for m in _fixture_modules():
        assert endomorphism_ring(m).module == m
    assert calls == {"inverse": 0, "module_intersect": 0}
    field = hecke.load_fixture("level71a").field
    m = module_from_generators(field, [(1, 0, 0), (0, 1, 0), (0, 0, 2)])
    assert endomorphism_ring(m).module != m
    assert calls == {"inverse": 3, "module_intersect": 2}
