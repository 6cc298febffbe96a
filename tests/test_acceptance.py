"""Acceptance suite: one test per criterion, exact oracles throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion with case counts and timings.
"""

import json
import random
import time
from fractions import Fraction

import mpmath
import pytest

from heckeaf import afalg, cli, hecke, mcf
from heckeaf.errors import DegenerateSpectrum, HeckeRelationViolated, ReducibleCharPoly
from heckeaf.exactnum import IntPolynomial, make_field
from heckeaf.exactnum.intmat import charpoly, is_primitive

from util import admissible_digits, cone_contains, random_unimodular


def _report(name, detail, started):
    print(f"[acceptance] {name}: PASS ({detail}, {time.time() - started:.2f}s)")


def test_bauer_roundtrip_200_cases():
    started = time.time()
    rng = random.Random(2024)
    cases = 0
    while cases < 200:
        n = rng.choice([2, 3, 4])
        digits = admissible_digits(rng, n, rng.randint(1, 8), max_entry=5)
        a = mcf.convergent_matrix(digits, n)
        recovered = mcf.bauer_factorize(a)
        assert list(recovered) == list(digits), (digits, recovered)
        assert mcf.convergent_matrix(recovered, n) == a
        cases += 1
    _report("bauer round-trip", f"{cases} digit products, n in 2..4", started)


def test_satz_xii_50_matrices():
    started = time.time()
    rng = random.Random(2025)
    cases = 0
    while cases < 50:
        n = rng.choice([2, 3, 4])
        digits = admissible_digits(rng, n, rng.randint(1, 8), max_entry=5)
        a = mcf.convergent_matrix(digits, n)
        if not is_primitive(a):
            continue
        try:
            u, lam = mcf.satz12_eigenvector(a)
        except (ReducibleCharPoly, DegenerateSpectrum):
            continue
        # A lam = u lam symbolically
        field = u.field
        for i in range(n):
            acc = field.zero
            for j in range(n):
                acc = acc + a[i][j] * lam[j]
            assert acc == u * lam[i]
        assert lam[0] == 1
        # the expansion of lam is purely periodic, and its period repeats
        # to the Bauer digits
        expansion = mcf.periodicity_roundtrip(a)
        bauer = tuple(mcf.bauer_factorize(a))
        assert expansion.preperiod == ()
        assert expansion.period * (len(bauer) // len(expansion.period)) == bauer
        cases += 1
    _report("Satz XII eigenvector + periodicity", f"{cases} matrices", started)


def test_regular_cf_ground_truth_with_shadow():
    started = time.time()
    mpmath.mp.dps = 50

    def shadow_cf(x, terms):
        digits = []
        terminated = False
        for _ in range(terms):
            a = int(mpmath.floor(x))
            digits.append(a)
            frac = x - a
            if frac < mpmath.mpf(10) ** -40:
                terminated = True
                break
            x = 1 / frac
        # the float image of a rational may end [..., a, 1] for [..., a+1]
        if terminated and len(digits) >= 2 and digits[-1] == 1:
            digits = digits[:-2] + [digits[-2] + 1]
        return digits

    # sqrt2: preperiod [1], period [2]
    field = make_field(IntPolynomial((-2, 0, 1)))
    e = mcf.regular_cf(field.gen, field.real_roots[-1])
    assert e.preperiod == ((1,),) and e.period == ((2,),)
    exact = [d[0] for d in (e.preperiod + e.period * 20)][:20]
    assert shadow_cf(mpmath.sqrt(2), 20) == exact

    # golden ratio: purely periodic [1]
    field = make_field(IntPolynomial((-1, -1, 1)))
    e = mcf.regular_cf(field.gen, field.real_roots[-1])
    assert e.is_purely_periodic() and e.period == ((1,),)
    exact = [1] * 20
    assert shadow_cf((1 + mpmath.sqrt(5)) / 2, 20) == exact

    # 355/113 terminates with the Euclid quotients
    e = mcf.regular_cf(Fraction(355, 113))
    assert e.terminated and [d[0] for d in e.digits] == [3, 7, 16]
    assert shadow_cf(mpmath.mpf(355) / 113, 10) == [3, 7, 16]

    _report("regular CF ground truth", "sqrt2, golden, 355/113 vs 50-digit shadow",
            started)


def test_trivial_stationary_dichotomy():
    started = time.time()
    f11 = hecke.load_fixture("level11a")
    r11 = hecke.af_of_eigenform(f11)
    assert isinstance(r11.af, afalg.TrivialAF)

    f23 = hecke.load_fixture("level23a")
    assert f23.field.minpoly == IntPolynomial((-1, 1, 1))
    r23 = hecke.af_of_eigenform(f23)
    assert isinstance(r23.af, afalg.StationaryAF)
    assert len(r23.af.period_matrix) == 2
    # the period matrix char poly equals the field polynomial of the used
    # unit power, verified symbolically
    u_power = r23.unit.element ** r23.realization.power
    assert r23.af.char_poly == u_power.min_poly()
    assert charpoly(r23.af.period_matrix) == u_power.min_poly()
    _report("trivial/stationary dichotomy", "level 11 trivial, level 23 stationary", started)


def test_companion_claim_all_fixtures():
    started = time.time()
    degree_ge2 = 0
    for name in hecke.bundled_fixture_names():
        f = hecke.load_fixture(name)
        if f.field.degree < 2:
            continue
        degree_ge2 += 1
        report = hecke.companion_of_conjugates(f, hecke.af_of_eigenform(f))
        assert report.all_equal, name
        assert len(set(report.char_polys)) == 1
        for _, _, verdict in report.pairwise_verdicts:
            assert verdict != afalg.VERDICT_DISTINCT, name
    assert degree_ge2 >= 2
    _report("companion claim", f"{degree_ge2} fixtures of degree >= 2", started)


def test_basis_change_invariance_50_cases():
    started = time.time()
    rng = random.Random(2026)
    f23 = hecke.load_fixture("level23a")
    field = f23.field
    gens = [field.one, f23.c(2)]
    base = hecke.af_of_eigenform(f23)
    base_report = cli.build_report(f23, result=base)
    base_bytes = json.dumps(base_report, sort_keys=True).encode()

    from importlib import resources

    data = json.loads(
        resources.files("heckeaf.fixtures").joinpath("level23a.json").read_text()
    )
    for _ in range(50):
        u = random_unimodular(2, rng)
        rows = []
        for row in u:
            acc = field.zero
            for c, g in zip(row, gens):
                acc = acc + c * g
            rows.append([str(x) for x in acc.coords])
        variant = dict(data)
        variant["module"] = rows
        f_var = hecke.load_newform(variant)
        r_var = hecke.af_of_eigenform(f_var)
        assert r_var.module == base.module
        report = cli.build_report(f_var, result=r_var)
        assert json.dumps(report, sort_keys=True).encode() == base_bytes
    _report("basis-change invariance", "50 unimodular basis changes, bitwise equal",
            started)


def test_hecke_verification_all_fixtures_and_corruption():
    started = time.time()
    for name in hecke.bundled_fixture_names():
        f = hecke.load_fixture(name)
        report = hecke.verify_eigenform(f)
        assert report.all_ok, name

    from importlib import resources

    data = json.loads(
        resources.files("heckeaf.fixtures").joinpath("level23a.json").read_text()
    )
    data["an"][5] = ["1", "1"]
    with pytest.raises(HeckeRelationViolated) as info:
        hecke.load_newform(data)
    assert (info.value.m, info.value.n) == (2, 3)
    _report("Hecke verification", "4 fixtures at p <= 13 + corruption witness",
            started)


def test_cone_properties_500_vectors():
    started = time.time()
    rng = random.Random(2027)
    field = make_field(IntPolynomial((-1, -1, 1)))
    group = afalg.dimension_group((field.gen,), field.real_roots[-1])

    members = []
    while len(members) < 500:
        x = (rng.randint(-12, 12), rng.randint(-12, 12))
        if cone_contains(group, x):
            members.append(x)
    for i in range(0, 500, 2):
        a, b = members[i], members[i + 1]
        assert cone_contains(group, (a[0] + b[0], a[1] + b[1]))
        k = rng.randint(0, 4)
        assert cone_contains(group, (k * a[0], k * a[1]))
    # unperforation witnesses
    checked = 0
    while checked < 500:
        x = (rng.randint(-12, 12), rng.randint(-12, 12))
        k = rng.randint(1, 5)
        if cone_contains(group, (k * x[0], k * x[1])):
            assert cone_contains(group, x)
            checked += 1
    _report("cone properties", "500 member pairs + 500 unperforation witnesses",
            started)
