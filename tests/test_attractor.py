"""The integer attractor expansion against the field-state reference.

units._attractor_data runs the Jacobi-Perron expansion of a module's
basis ratios as integer row operations on its basis-change matrix, with
digits and repeat fingerprints read from basis enclosures.  The reference
below is the direct expansion: exact field-element states stepped by
mcf.jpa_step and hashed by their coordinates, with the attractor basis
obtained by inverting the basis change.  Both must give the same
(T, W, period, return unit), or both None.
"""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from heckeaf import hecke, mcf
from heckeaf.exactnum import endomorphism_ring, module_from_generators, sign_at, units
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


@pytest.fixture(params=[None, 0], ids=["fingerprint-default", "fingerprint-0"])
def fingerprint_bits(request, monkeypatch):
    """Run with the module's fingerprint width, and with width 0: then the
    fingerprint is the digit, every state with the same digit collides,
    and each repeat rests on the exact comparison alone."""
    if request.param is not None:
        monkeypatch.setattr(units, "_FINGERPRINT_BITS", request.param)
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
        assert got == reference_attractor_data(m, root), label
        cycled += got is not None
    assert cycled > 0


def test_level47a_matches_reference():
    f = hecke.load_newform(LEVEL47A.read_text())
    module = hecke.module_of_eigenform(f)
    root = f.field.real_roots[3]
    assert units._attractor_data(module, root) == reference_attractor_data(module, root)


def test_level47a_short_expansion_without_fingerprint(monkeypatch):
    f = hecke.load_newform(LEVEL47A.read_text())
    module = hecke.module_of_eigenform(f)
    root = f.field.real_roots[3]
    monkeypatch.setattr(units, "_FINGERPRINT_BITS", 0)
    got = units._attractor_data(module, root, max_steps=64)
    assert got == reference_attractor_data(module, root, max_steps=64)


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
    assert units._attractor_data(m, root, 24) == reference_attractor_data(m, root, 24)


@settings(max_examples=25, deadline=None)
@given(_full_rank_module())
def test_random_modules_match_reference_without_fingerprint(case):
    m, root = case
    original = units._FINGERPRINT_BITS
    units._FINGERPRINT_BITS = 0
    try:
        got = units._attractor_data(m, root, 24)
    finally:
        units._FINGERPRINT_BITS = original
    assert got == reference_attractor_data(m, root, 24)
