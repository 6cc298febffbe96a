"""af_of_module on drawn modules, each certified run checked by oracles
outside the package.

Rank 2: every module of a real quadratic field certifies at both
embeddings, since the regular continued fraction of a quadratic irrational
is eventually periodic (Lagrange).  Any rank: wherever the module's own
Jacobi-Perron expansion cycles, the run certifies with that expansion's
return unit and the period's convergent matrix in the attractor basis.

The oracles: sympy's characteristic polynomial of the realized matrix M,
and, in mpmath, the module basis g seen at the embedding: x = sigma(T^-1 g)
has one sign and M x = sigma(u)^k x.
"""

import importlib.util
from pathlib import Path

import mpmath
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from heckeaf import hecke
from heckeaf.exactnum import IntPolynomial, make_field, module_from_generators
from heckeaf.exactnum.units import _attractor_data
from heckeaf.mcf import convergent_matrix
from test_attractor import reference_attractor_data
from util import CUBIC_FAMILIES, irreducible_totally_real

X = sympy.symbols("x")


def _digits(matrix) -> int:
    return max(len(str(abs(int(e)))) for row in matrix for e in row)


def _real_roots(poly: IntPolynomial, dps: int):
    """The real roots of poly in increasing order, as mpmath numbers."""
    roots = sympy.Poly(list(reversed(poly.coeffs)), X).real_roots()
    return [mpmath.mpf(str(r.evalf(dps + 10))) for r in roots]


def _embed(elem, root):
    return sum(mpmath.mpf(c.numerator) / c.denominator * root ** i
               for i, c in enumerate(elem.coords))


def check_oracles(module, index, result):
    """sympy's char poly of the matrix is the result's; at the embedding,
    sigma(T^-1 g) is a one-signed eigenvector of M for sigma(u)^k."""
    real = result.realization
    m = sympy.Matrix(real.matrix)
    assert tuple(reversed(m.charpoly(X).all_coeffs())) == result.af.char_poly.coeffs
    t_inv = sympy.Matrix(real.transform).inv()
    with mpmath.workdps(50 + _digits(t_inv.tolist()) + _digits(real.matrix)):
        root = _real_roots(module.field.minpoly, mpmath.mp.dps)[index]
        g = [_embed(b, root) for b in module.basis_elements()]
        n = len(g)
        x = [sum(int(t_inv[i, j]) * g[j] for j in range(n)) for i in range(n)]
        lam = _embed(result.unit.element, root) ** real.power
        assert all(v > 0 for v in x) or all(v < 0 for v in x)
        # x may cancel: the error of x_i is relative to sum_j |T^-1_ij g_j|
        scale = abs(lam) * max(sum(abs(int(t_inv[i, j]) * g[j]) for j in range(n)) for i in range(n))
        for i in range(n):
            mx = sum(real.matrix[i][j] * x[j] for j in range(n))
            assert abs(mx - lam * x[i]) <= scale * mpmath.mpf(10) ** -40


def _is_square(d: int) -> bool:
    return sympy.sqrt(d).is_Integer


@settings(max_examples=100, deadline=None)
@given(
    d=st.integers(2, 10 ** 4).filter(lambda d: not _is_square(d)),
    gens=st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda t: t[0] * t[3] != t[1] * t[2]),
    index=st.integers(0, 1),
)
def test_every_quadratic_module_certifies(d, gens, index):
    """The module Z(a + b sqrt d) + Z(a' + b' sqrt d) certifies at either
    embedding.  The coordinates stay in -3..3: a module of conductor f
    has a period up to about f times that of sqrt(d), and the expansion's
    budget is 4096 steps; at the three d <= 10^4 whose sqrt(d) has the
    longest period, every module of -3..3 cycles within 2038."""
    k = make_field(IntPolynomial((-d, 0, 1)))
    a, b, a2, b2 = gens
    module = module_from_generators(k, [k.element([a, b]), k.element([a2, b2])])
    check_oracles(module, index, hecke.af_of_module(module, index))


@settings(max_examples=25, deadline=None)
@given(abc=st.tuples(*[st.integers(-8, 8)] * 3).filter(irreducible_totally_real))
@example(abc=(-4, -3, 1))  # Z+Za+2Za^2 at embedding 0 is not its own ring and cycles
def test_cubic_modules_certify_wherever_their_expansion_cycles(abc):
    """Every embedding of every family at which the module's expansion
    cycles, with (T, W, period, v) by the field-state reference
    expansion, gives unit v and the realization (convergent_matrix(period),
    power 1, transform T).  Elsewhere the unit search falls back to its
    shell enumeration, which can take seconds, so af_of_module runs only
    where the expansion cycles."""
    a, b, c = abc
    k = make_field(IntPolynomial((c, b, a, 1)))
    for rows in CUBIC_FAMILIES:
        module = module_from_generators(k, [k.element(row) for row in rows])
        for index, root in enumerate(k.real_roots):
            if _attractor_data(module, root) is None:
                continue
            t_mat, _, period, v = reference_attractor_data(module, root)
            result = hecke.af_of_module(module, index)
            assert result.unit.element == v
            real = result.realization
            assert (real.matrix, real.power, real.transform) == (convergent_matrix(period, 3), 1, t_mat)
            check_oracles(module, index, result)


@pytest.mark.parametrize("index", [-1, 3])
def test_af_of_module_rejects_an_embedding_index_out_of_range(index):
    """A cubic field with three real roots takes indices 0..2 only; without
    the check, -1 would pick the largest root."""
    k = make_field(IntPolynomial((1, -3, -4, 1)))
    a = k.gen
    module = module_from_generators(k, [k.one, a, a * a])
    with pytest.raises(ValueError, match="embedding_index"):
        hecke.af_of_module(module, index)


def test_module_survey_prints_one_row_per_family(capsys):
    """tools/module_survey.py on the first five real quadratic fields: a
    header, one row per family of ten runs (five fields, two embeddings)
    and the total time.  The outcome counts are not pinned."""
    path = Path(__file__).resolve().parent.parent / "tools" / "module_survey.py"
    spec = importlib.util.spec_from_file_location("module_survey", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["--degree", "2", "--count", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split()[:3] == ["family", "runs", "cycling"]
    assert len(lines) == 2 + len(tool.QUADRATIC_FAMILIES)
    for line, name in zip(lines[1:], tool.QUADRATIC_FAMILIES):
        assert line.startswith(name)
        assert line[len(name):].split()[0] == "10"
    assert lines[-1].startswith("total pipeline time ")
