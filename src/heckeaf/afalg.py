"""Bratteli diagrams, stationary AF descriptors, and dimension groups.

An AF-algebra is handled purely through its diagram data: levels of
vertices with non-negative partial multiplicity matrices between them.
A periodic digit expansion yields a stationary descriptor (one constant
matrix); a terminating one yields a finite diagram; rank one collapses to
the trivial algebra.  Dimension groups are (Z^n, cone, order unit) with
the cone given by its exact defining functional.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import product as iter_product

from .errors import ShapeMismatch
from .exactnum.field import FieldElement, RealRootInterval, sign_at
from .exactnum.intmat import charpoly, mat_det, mat_is_nonnegative, row_hnf_transform
from .exactnum.polynomial import IntPolynomial
from .mcf import JpaExpansion, convergent_matrix, jpa_block, perron_charpoly

VERDICT_COMPANION = "companion"
VERDICT_SIMILAR_Q = "similar_over_Q"
VERDICT_DISTINCT = "distinct_char_poly"
VERDICT_UNDETERMINED = "undetermined_Z_similarity"


@dataclass(frozen=True)
class TrivialAF:
    """The algebra of complex numbers; rank-one diagrams collapse here."""

    def __eq__(self, other):
        return isinstance(other, TrivialAF)

    def __hash__(self):
        return hash("TrivialAF")


@dataclass(frozen=True)
class BratteliDiagram:
    """Finitely many explicit levels; stationary tails live in StationaryAF."""

    vertex_counts: tuple        # per level
    matrices: tuple             # matrices[i] maps level i to level i+1
    complete: bool = True       # False when a step budget cut the data off

    def __post_init__(self):
        if len(self.matrices) != len(self.vertex_counts) - 1:
            raise ShapeMismatch("need one matrix between consecutive levels")
        for i, m in enumerate(self.matrices):
            if len(m) != self.vertex_counts[i + 1] or any(
                len(row) != self.vertex_counts[i] for row in m
            ):
                raise ShapeMismatch(f"matrix {i} does not match level sizes")
            if not mat_is_nonnegative(m):
                raise ShapeMismatch(f"matrix {i} has negative multiplicities")

    @property
    def levels(self) -> int:
        return len(self.vertex_counts)


@dataclass(frozen=True)
class StationaryAF:
    """A diagram whose partial multiplicity matrix is one constant block."""

    period_matrix: tuple
    digits: tuple               # the digit cycle generating period_matrix
    char_poly: IntPolynomial    # of period_matrix, irreducible

    @property
    def rank(self) -> int:
        return len(self.period_matrix)


def af_from_expansion(expansion: JpaExpansion):
    """The AF descriptor of a digit expansion.

    Periodic tail: stationary with the period block product.  Terminating:
    a finite diagram, collapsing to the trivial algebra in rank one.
    Budget exhaustion: the finite prefix, flagged incomplete and never
    claimed stationary.
    """
    n = expansion.dim
    if n == 1:
        return TrivialAF()
    if expansion.is_periodic():
        b = convergent_matrix(expansion.period, n)
        return StationaryAF(b, tuple(expansion.period), perron_charpoly(b))
    mats = tuple(jpa_block(d, n) for d in expansion.digits)
    counts = (n,) * (len(mats) + 1)
    return BratteliDiagram(counts, mats, complete=expansion.terminated)


@dataclass(frozen=True)
class DimensionGroup:
    """(Z^n, positive cone, order unit) with an exact cone functional.

    x is in the cone when theta_1 x_1 + ... + theta_(n-1) x_(n-1) + x_n
    is non-negative at the chosen embedding.
    """

    theta: tuple                # n-1 field elements
    root: RealRootInterval | None
    order_unit: tuple

    @property
    def rank(self) -> int:
        return len(self.theta) + 1

    def functional(self, x) -> FieldElement:
        if len(x) != self.rank:
            raise ShapeMismatch(f"vector of length {len(x)}, expected {self.rank}")
        if not self.theta:
            raise ShapeMismatch("rank-1 group has a rational functional")
        field = self.theta[0].field
        acc = field.from_rational(x[-1])
        for xi, th in zip(x[:-1], self.theta):
            if xi:
                acc = acc + xi * th
        return acc


def dimension_group(theta, root: RealRootInterval | None) -> DimensionGroup:
    theta = tuple(theta)
    for t in theta:
        if sign_at(t, root) <= 0:
            raise ValueError("cone functional coefficients must be positive")
    rank = len(theta) + 1
    unit = (0,) * (rank - 1) + (1,)
    return DimensionGroup(theta=theta, root=root, order_unit=unit)


# ---------------------------------------------------------------------------
# companionship of period matrices

def _sylvester(b1, b2):
    """The matrix whose left integer kernel is {X : X b2 = b1 X}, X
    vectorized row-major: row (a, k) holds the coefficients of X[a][k] in
    the entries (i, j) of X b2 - b1 X."""
    n = len(b1)
    return [tuple((b2[k][j] if a == i else 0) - (b1[i][a] if k == j else 0)
                  for i in range(n) for j in range(n))
            for a in range(n) for k in range(n)]


def _integer_conjugator_search(kernel, n: int, bound: int = 10):
    """Unimodular integer T with entries bounded, or None, from a basis
    of the integer solutions T of T b2 = b1 T: small combinations of the
    basis are scanned for determinant +-1.
    """
    dim = len(kernel)
    if dim == 0:
        return None
    if dim > 4:
        kernel = kernel[:4]  # keep the scan bounded; verdict stays undetermined
        dim = 4
    span = range(-3, 4) if dim > 2 else range(-bound, bound + 1)
    for combo in iter_product(span, repeat=dim):
        if all(c == 0 for c in combo):
            continue
        vec = [0] * (n * n)
        for c, basis_vec in zip(combo, kernel):
            if c:
                for idx in range(n * n):
                    vec[idx] += c * basis_vec[idx]
        if any(abs(v) > bound for v in vec):
            continue
        t = tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n))
        if mat_det(t) in (1, -1):
            return t
    return None


def companion_check(b1, b2) -> str:
    """Classify two integer matrices per the companion notion.

    distinct_char_poly when the characteristic polynomials differ;
    companion when they agree but the matrices are not similar over Q;
    similar_over_Q when an integer unimodular conjugator is found; and
    undetermined_Z_similarity when they are Q-similar but the bounded
    integer search is inconclusive.

    Similarity over Q is decided by ranks (Byrnes & Gauger, Linear and
    Multilinear Algebra 5, 1977): b1 and b2 are similar exactly when the
    solution spaces of X b1 = b1 X, X b2 = b1 X and X b2 = b2 X have
    equal dimensions.  One Hermite form of the (b1, b2) matrix gives its
    rank and the integer solutions the conjugator search scans.
    """
    b1 = tuple(tuple(int(x) for x in row) for row in b1)
    b2 = tuple(tuple(int(x) for x in row) for row in b2)
    n = len(b1)
    if len(b2) != n or any(len(r) != n for r in b1) or any(len(r) != n for r in b2):
        raise ShapeMismatch("matrices must be square and of equal size")
    if charpoly(b1) != charpoly(b2):
        return VERDICT_DISTINCT
    _, u, rank = row_hnf_transform(_sylvester(b1, b2))
    if not (row_hnf_transform(_sylvester(b1, b1))[2] == rank
            == row_hnf_transform(_sylvester(b2, b2))[2]):
        return VERDICT_COMPANION
    if _integer_conjugator_search(u[rank:], n) is not None:
        return VERDICT_SIMILAR_Q
    return VERDICT_UNDETERMINED


# ---------------------------------------------------------------------------
# exports

def _matrix_strings(m):
    return [[str(x) for x in row] for row in m]


# the levels a DOT rendering draws of a stationary diagram
_STATIONARY_LEVELS = 5


def export_bratteli(obj, fmt: str) -> str:
    """DOT or JSON rendering of a diagram descriptor."""
    if fmt == "json":
        return _export_json(obj)
    if fmt == "dot":
        return _export_dot(obj)
    raise ValueError(f"unknown format {fmt!r}")


def _export_json(obj) -> str:
    if isinstance(obj, TrivialAF):
        payload = {"type": "trivial"}
    elif isinstance(obj, StationaryAF):
        payload = {
            "type": "stationary",
            "rank": obj.rank,
            "period_matrix": _matrix_strings(obj.period_matrix),
            "digits": [[str(b) for b in d] for d in obj.digits],
            "char_poly": [str(c) for c in obj.char_poly.coeffs],
        }
    elif isinstance(obj, BratteliDiagram):
        payload = {
            "type": "finite",
            "vertex_counts": list(obj.vertex_counts),
            "matrices": [_matrix_strings(m) for m in obj.matrices],
            "complete": obj.complete,
        }
    else:
        raise TypeError(f"cannot export {type(obj).__name__}")
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integers(value, depth: int, what: str):
    """JSON lists nested depth deep around integers or integer strings (as
    export_bratteli writes them) as nested tuples of ints."""
    if depth:
        if not isinstance(value, list):
            raise ShapeMismatch(f"{what}: expected a list, found a {type(value).__name__}")
        return tuple(_integers(v, depth - 1, what) for v in value)
    if type(value) is not int and not (type(value) is str and _INTEGER.fullmatch(value)):
        raise ShapeMismatch(f"{what} entries must be integers or integer strings, not {value!r}")
    try:
        return int(value)
    except ValueError as exc:  # more digits than int() converts
        raise ShapeMismatch(f"{what} has an entry too long: {exc}") from exc


def parse_bratteli_json(text: str):
    """The descriptor export_bratteli(obj, "json") wrote; ShapeMismatch
    for any text that is not such a payload."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise ShapeMismatch(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ShapeMismatch(f"a diagram is a JSON object, not a {type(data).__name__}")
    kind = data.get("type")
    if kind == "trivial":
        return TrivialAF()
    if kind == "stationary":
        b = _integers(data.get("period_matrix"), 2, "period_matrix")
        digits = _integers(data.get("digits"), 2, "digits")
        try:
            fits = convergent_matrix(digits, len(b)) == b
        except ValueError:  # a digit of the wrong length or sign
            fits = False
        if not fits:
            raise ShapeMismatch("digits do not multiply to the period matrix")
        return StationaryAF(b, digits, perron_charpoly(b))
    if kind == "finite":
        complete = data.get("complete", True)
        if type(complete) is not bool:
            raise ShapeMismatch(f"complete must be true or false, not {complete!r}")
        return BratteliDiagram(
            _integers(data.get("vertex_counts"), 1, "vertex_counts"),
            _integers(data.get("matrices"), 3, "matrices"),
            complete=complete,
        )
    raise ShapeMismatch(f"unknown diagram type {kind!r}")


def _export_dot(obj) -> str:
    if isinstance(obj, TrivialAF):
        return 'digraph bratteli {\n  rankdir=TB;\n  v0_0 [shape=point];\n}\n'
    if isinstance(obj, StationaryAF):
        mats = [obj.period_matrix] * (_STATIONARY_LEVELS - 1)
        counts = [obj.rank] * _STATIONARY_LEVELS
        note = "stationary: level matrix repeats forever"
    else:
        mats = list(obj.matrices)
        counts = list(obj.vertex_counts)
        note = "finite diagram" if obj.complete else "truncated diagram (budget hit)"
    lines = ["digraph bratteli {", "  rankdir=TB;", f'  label="{note}";']
    for lvl, cnt in enumerate(counts):
        names = " ".join(f"v{lvl}_{r};" for r in range(cnt))
        lines.append(f"  {{ rank=same; {names} }}")
    for lvl, m in enumerate(mats):
        # m[r][s] edges join vertex s at this level to vertex r at the next
        for r, row in enumerate(m):
            for s, mult in enumerate(row):
                lines.extend([f"  v{lvl}_{s} -> v{lvl + 1}_{r};"] * mult)
    lines.append("}")
    return "\n".join(lines) + "\n"
