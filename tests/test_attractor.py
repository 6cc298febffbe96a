"""The integer attractor expansion against field-state references.

units._attractor_data runs the Jacobi-Perron expansion of a module's
basis ratios as integer row operations on its basis-change matrix, with
digits and repeat fingerprints read from basis enclosures, and returns the
cycle's unit and realization in closed form.  The first reference below is
the direct expansion: exact field-element states stepped by mcf.jpa_step
and hashed by their coordinates, with the attractor basis obtained by
inverting the basis change.  Its (T, W, period, return unit), written in
the closed form, must equal what _attractor_data returns, or both None.

The second reference is the classical degree-2 unit: one period of the
continued fraction of the order's discriminant surd gives its fundamental
unit.  The return unit of _attractor_data, the unit of every cycling run
in every degree, must be that unit on real quadratic orders.
"""

from fractions import Fraction
from math import isqrt
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckeaf import hecke, mcf
from heckeaf.exactnum import (
    IntPolynomial,
    endomorphism_ring,
    make_field,
    module_from_generators,
    sign_at,
    trace_gram,
    units,
)
from heckeaf.exactnum.intmat import mat_det, mat_inverse_fraction, mat_mul

LEVEL47A = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "level47a.json"


def _combination(row, elems, field):
    acc = field.zero
    for coef, g in zip(row, elems):
        if coef:
            acc = acc + coef * g
    return acc


def reference_attractor_data(m, root, max_steps=512):
    basis = m.basis_elements()
    n = len(basis)
    if n < 2:
        return None
    signs = [sign_at(g, root) for g in basis]
    adapted = [g if s > 0 else -g for g, s in zip(basis, signs)]
    state = tuple(adapted[i] / adapted[0] for i in range(1, n))
    seen = {}
    digits = []
    for step in range(max_steps):
        key = tuple(t.coords for t in state)
        if key in seen:
            pre = digits[: seen[key]]
            period = tuple(digits[seen[key]:])
            s_diag = tuple(
                tuple((signs[j] if i == j else 0) for j in range(n)) for i in range(n)
            )
            t_mat = mat_mul(s_diag, mcf.convergent_matrix(pre, n))
            inverse = mat_inverse_fraction(t_mat)
            assert all(x.denominator == 1 for row in inverse for x in row)
            w = tuple(tuple(int(x) for x in row) for row in inverse)
            star = [_combination(row, basis, m.field) for row in w]
            p_mat = mcf.convergent_matrix(period, n)
            v = _combination(p_mat[0], star, m.field) / star[0]
            return t_mat, w, period, v
        seen[key] = step
        digit, nxt = mcf.jpa_step(state, root)
        digits.append(digit)
        if nxt is None:
            return None
        state = nxt
    return None


def reference_closed_form(m, root, max_steps=512):
    """reference_attractor_data's (T, W, period, v) as _attractor_data
    returns it: v, and the realization (C(period), power 1, T) with the
    round trip (period, v, lam, the pure expansion with that period) for
    lam = W g scaled to lam_0 = 1; None when the expansion does not cycle."""
    data = reference_attractor_data(m, root, max_steps)
    if data is None:
        return None
    t_mat, w, period, v = data
    x = [_combination(row, m.basis_elements(), m.field) for row in w]
    lam = tuple(e / x[0] for e in x)
    roundtrip = mcf.RoundTrip(period, v, lam, mcf.JpaExpansion(len(w), (), period, False))
    return v, units.Realization(mcf.convergent_matrix(period, len(w)), 1, t_mat, roundtrip)


def reference_quadratic_unit(order, root):
    """Fundamental expanding unit of a real quadratic order.

    The order of discriminant D equals Z[omega] for omega = (r + sqrt(D))/2
    with r = D mod 2.  The regular continued fraction of omega is
    eventually periodic; one full period around the purely periodic tail
    theta* yields the unit u = C theta* + D' from the period's convergent
    matrix.
    """
    field = order.field
    (g00, g01), (g10, g11) = trace_gram(order.basis_elements())
    disc = g00 * g11 - g01 * g10
    assert disc > 0
    # sqrt(disc) inside the field: for any non-rational zeta in the order,
    # s = 2 zeta - Tr(zeta) has s^2 = disc(Z[zeta]) = k^2 * disc
    zeta = next(b for b in order.basis_elements() if not b.is_rational())
    s = 2 * zeta - field.from_rational(zeta.trace())
    s_sq = (s * s).as_rational()
    k_sq, rem = divmod(s_sq.numerator, disc)
    k = isqrt(k_sq)
    assert s_sq.denominator == 1 and rem == 0 and k * k == k_sq
    sqrt_d = s / k
    if sign_at(sqrt_d, root) < 0:
        sqrt_d = -sqrt_d
    omega = (field.from_rational(disc % 2) + sqrt_d) / 2
    assert order.contains(omega)

    # walk the expansion keeping exact states; stop at the first repeat
    seen = {}
    trail = []
    state = omega
    for step in range(4096):
        key = state.coords
        if key in seen:
            theta_star = trail[seen[key]][0]
            m = ((1, 0), (0, 1))
            for _, (a,) in trail[seen[key]:]:
                m = mat_mul(m, ((a, 1), (1, 0)))
            u = m[1][0] * theta_star + m[1][1]
            assert u.norm() in (1, -1)
            assert order.contains(u.inverse())
            assert sign_at(u - field.one, root) > 0
            return u
        seen[key] = step
        digit, nxt = mcf.jpa_step((state,), root)
        trail.append((state, digit))
        state = nxt[0]
    raise AssertionError("no period within 4096 steps")


@pytest.fixture(params=[None, 0], ids=["fingerprint-default", "fingerprint-0"])
def fingerprint_bits(request, monkeypatch):
    """Run with the module's fingerprint width, and with width 0: then the
    fingerprint is the digit, every state with the same digit collides,
    and each repeat rests on the exact comparison alone."""
    if request.param is not None:
        monkeypatch.setattr(mcf, "_FINGERPRINT_BITS", request.param)
    return request.param


def _bundled_cases():
    cases = []
    for name in hecke.bundled_fixture_names():
        f = hecke.load_fixture(name)
        module = hecke.module_of_eigenform(f)
        modules = [module]
        if f.field.degree > 1:
            modules.append(endomorphism_ring(module).module)
        for i, root in enumerate(f.field.real_roots):
            for m in modules:
                cases.append((f"{name}@{i}", m, root))
    return cases


def test_bundled_modules_match_reference(fingerprint_bits):
    cycled = 0
    for label, m, root in _bundled_cases():
        got = units._attractor_data(m, root)
        assert got == reference_closed_form(m, root), label
        cycled += got is not None
    assert cycled > 0


def test_level47a_matches_reference():
    f = hecke.load_newform(LEVEL47A.read_text())
    module = hecke.module_of_eigenform(f)
    root = f.field.real_roots[3]
    assert units._attractor_data(module, root) == reference_closed_form(module, root)


def test_level47a_short_expansion_without_fingerprint(monkeypatch):
    f = hecke.load_newform(LEVEL47A.read_text())
    module = hecke.module_of_eigenform(f)
    root = f.field.real_roots[3]
    monkeypatch.setattr(mcf, "_FINGERPRINT_BITS", 0)
    got = units._attractor_data(module, root, max_steps=64)
    assert got == reference_closed_form(module, root, max_steps=64)


_FIELDS = {
    label: hecke.load_fixture(label).field for label in ("level23a", "level71a")
}


@st.composite
def _full_rank_module(draw):
    field = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    n = field.degree
    rows = [
        [draw(st.integers(-4, 4)) for _ in range(n)] for _ in range(n)
    ]
    assume(mat_det(rows) != 0)
    den = draw(st.integers(1, 3))
    gens = [[Fraction(x, den) for x in row] for row in rows]
    root = field.real_roots[draw(st.integers(0, len(field.real_roots) - 1))]
    return module_from_generators(field, gens), root


@settings(max_examples=40, deadline=None)
@given(_full_rank_module())
def test_random_modules_match_reference(case):
    m, root = case
    assert units._attractor_data(m, root, 24) == reference_closed_form(m, root, 24)


@settings(max_examples=25, deadline=None)
@given(_full_rank_module())
def test_random_modules_match_reference_without_fingerprint(case):
    m, root = case
    original = mcf._FINGERPRINT_BITS
    mcf._FINGERPRINT_BITS = 0
    try:
        got = units._attractor_data(m, root, 24)
    finally:
        mcf._FINGERPRINT_BITS = original
    assert got == reference_closed_form(m, root, 24)


@pytest.mark.parametrize("d", [d for d in range(2, 61) if isqrt(d) ** 2 != d])
def test_find_unit_matches_continued_fraction_unit(d):
    """The unit of a cycling run, _attractor_data's return unit, is the
    fundamental unit on Z[sqrt d], Z[(1+sqrt d)/2] when d = 1 mod 4,
    Z[2 sqrt d], Z[3 sqrt d] and the module <3, 1 + sqrt d>, which is not
    a ring, at both embeddings of Q(sqrt d)."""
    field = make_field(IntPolynomial((-d, 0, 1)))
    one, r = field.one, field.gen
    gens = [[one, r], [one, 2 * r], [one, 3 * r], [3 * one, one + r]]
    if d % 4 == 1:
        gens.append([one, (one + r) / 2])
    for g in gens:
        order = endomorphism_ring(module_from_generators(field, g))
        for root in field.real_roots:
            v, _ = units._attractor_data(order.module, root)
            assert v == reference_quadratic_unit(order, root), (g, root)


def test_find_unit_long_quadratic_period():
    """The continued fraction of sqrt(48799) has period 544: more than the
    512 steps a rank-3 expansion gets, within the rank-2 budget, and
    _attractor_data's return unit is the fundamental unit."""
    field = make_field(IntPolynomial((-48799, 0, 1)))
    order = endomorphism_ring(module_from_generators(field, [field.one, field.gen]))
    for root in field.real_roots:
        v, _ = units._attractor_data(order.module, root)
        assert v == reference_quadratic_unit(order, root)


def _expand_times_tool():
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "tools" / "expand_times.py"
    spec = importlib.util.spec_from_file_location("expand_times", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


@pytest.mark.parametrize("steps, rows", [
    # level23a's coefficient module repeats state 0 after one step at
    # embedding 0, and state 1 after two steps at embedding 1, which a
    # budget of two states does not reach; both stay at the first
    # precision, and only state 0 is enclosed from the basis bounds
    (16, [["0", "1", "state 0, period 1", "96", "1"], ["1", "2", "state 1, period 1", "96", "1"]]),
    (2, [["0", "1", "state 0, period 1", "96", "1"], ["1", "1", "no", "96", "1"]]),
])
def test_expand_times_reports_steps_and_repeats(capsys, steps, rows):
    """tools/expand_times.py prints one row per embedding: the steps the
    expansion ran, the repeat it found, the final precision in bits, the
    states whose row enclosures were recomputed and a wall time; the period
    it names is that of units._attractor_data."""
    tool = _expand_times_tool()
    assert tool.main(["level23a", "--steps", str(steps)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:6] == ["embedding", "steps", "repeat", "bits", "recomputed", "seconds"]
    assert len(lines) == 1 + len(rows)
    for line, (index, stepped, repeat, bits, recomputed) in zip(lines[1:], rows):
        fields = line.split()
        assert fields[:2] == [index, stepped]
        assert " ".join(fields[2:-3]) == repeat
        assert fields[-3:-1] == [bits, recomputed]
        assert float(fields[-1]) >= 0
    f = hecke.load_fixture("level23a")
    module = hecke.module_of_eigenform(f)
    assert [len(units._attractor_data(module, r)[1].roundtrip.digits)
            for r in f.field.real_roots] == [1, 1]


@pytest.mark.parametrize("spec", ["level23a@5", "level23a@x", "level23a@-1", "nofixture"])
def test_expand_times_refuses_a_bad_fixture_as_a_usage_error(capsys, spec):
    """An embedding index that is not one of the fixture's, and a fixture
    that does not load, end in a usage error (exit code 2), not a
    traceback."""
    tool = _expand_times_tool()
    with pytest.raises(SystemExit) as exc:
        tool.main([spec, "--steps", "4"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "error:" in captured.err
