"""Output checks for the benchmark, written against sympy.

Every check here recomputes its fact from the output's own data with
sympy or with a few lines of integer code, never with heckeaf.  Each
function returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

from fractions import Fraction

import sympy

X = sympy.Symbol("x")


def block_product(digits, n):
    """B(d_1) ... B(d_k) as integer rows, where B(d) has first row
    (0, ..., 0, 1) and row i a 1 at column i-1 plus d_i in the last column."""
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for d in digits:
        # acc * B(d): column j < n-1 of the product is column j+1 of acc,
        # the last column is column 0 of acc plus d-weighted columns 1..n-1
        acc = [
            row[1:] + [row[0] + sum(row[i] * d[i - 1] for i in range(1, n))]
            for row in acc
        ]
    return acc


def _primitive_root(seq):
    """The shortest prefix whose repetition gives seq."""
    seq = tuple(seq)
    for p in range(1, len(seq) + 1):
        if len(seq) % p == 0 and seq[:p] * (len(seq) // p) == seq:
            return seq[:p]
    return seq


def same_cycle(a, b) -> bool:
    """Whether two digit cycles give the same periodic sequence up to
    rotation (a cycle and its repetitions count as the same cycle)."""
    a, b = _primitive_root(a), _primitive_root(b)
    if not a or len(a) != len(b):
        return False
    return any(a[r:] + a[:r] == b for r in range(len(a)))


def _ints(rows):
    return [[int(v) for v in row] for row in rows]


def _digits(rows):
    return tuple(tuple(int(v) for v in d) for d in rows)


def _poly(coords):
    """A polynomial in x from coordinates, lowest degree first."""
    return sympy.Poly([sympy.Rational(str(c)) for c in reversed(coords)], X, domain="QQ")


def check_char_poly(matrix, char_poly_low_first) -> list:
    """char_poly equals det(xI - M) and is irreducible over Q."""
    cp = sympy.Matrix(matrix).charpoly(X)
    problems = []
    if [int(c) for c in reversed(cp.all_coeffs())] != [int(c) for c in char_poly_low_first]:
        problems.append(f"char_poly {list(char_poly_low_first)} is not det(xI - M)")
    elif not cp.is_irreducible:
        problems.append("char_poly is reducible")
    return problems


def check_stationary_report(report) -> list:
    """The seven facts a stationary `heckeaf af` report must satisfy."""
    problems = []
    n = report["degree"]
    nonneg = sympy.Matrix(_ints(report["nonneg"]["matrix"]))
    if any(v < 0 for v in nonneg) or nonneg.det() not in (1, -1):
        problems.append("nonneg.matrix is not non-negative with determinant +-1")
    digits = _digits(report["digits"])
    if sympy.Matrix(block_product(digits, n)) != nonneg:
        problems.append("product of B(d) over digits is not nonneg.matrix")
    t = sympy.Matrix(_ints(report["nonneg"]["transform"]))
    a = sympy.Matrix(_ints(report["matrix_a"]))
    if t.det() not in (1, -1):
        problems.append("transform is not unimodular")
    elif a ** int(report["nonneg"]["power"]) * t != t * nonneg:
        problems.append("T^-1 A^power T is not nonneg.matrix")
    problems += check_char_poly(nonneg, report["char_poly"])

    field_poly = _poly(report["field_poly"])
    unit = _poly(report["unit"]["coords"])
    den = Fraction(report["module"]["den"])
    basis = [_poly([Fraction(c) / den for c in row]) for row in report["module"]["rows"]]
    for i, g in enumerate(basis):
        image = (unit * g).rem(field_poly)
        combo = sympy.Poly(0, X, domain="QQ")
        for coef, h in zip(a.row(i), basis):
            combo += h * int(coef)
        if image != combo:
            problems.append(f"row {i} of matrix_a is not the unit's action on the module")
            break
    lead = field_poly.LC() ** unit.degree()
    norm = sympy.resultant(field_poly.as_expr(), unit.as_expr(), X) / lead
    if norm not in (1, -1) or norm != int(report["unit"]["norm"]):
        problems.append(f"unit norm is {norm}, reported {report['unit']['norm']}")
    if not same_cycle(_digits(report["expansion"]["period"]), digits):
        problems.append("expansion period is not a rotation of digits")
    return problems


def check_af_report(report, code, fixture) -> list:
    """A report of `heckeaf af` on the fixture dict it was given.

    Exit 0 must come with a trivial (degree 1) or a correct stationary
    result; exit 4 must name a typed HeckeafError.  Anything else fails.
    """
    if report is None:
        return [f"no report written (exit {code})"]
    problems = []
    if report.get("level") != fixture["level"] or report.get("label") != fixture["label"]:
        problems.append("report names another fixture")
    if [int(c) for c in report.get("field_poly", [])] != fixture["field_poly"]:
        problems.append("field_poly differs from the fixture")
    if code == 4:
        stage = report.get("error", {}).get("stage")
        if not is_heckeaf_error(stage):
            problems.append(f"exit 4 with error stage {stage!r}, not a HeckeafError")
        return problems
    if code != 0 or "error" in report:
        return problems + [f"exit {code} with error {report.get('error')}"]
    if report.get("type") == "trivial":
        if report["degree"] != 1 or len(fixture["field_poly"]) != 2:
            problems.append("trivial result for a field of degree > 1")
        return problems
    if report.get("type") != "stationary":
        return problems + [f"unknown report type {report.get('type')!r}"]
    expected = fixture.get("embedding_index")
    if expected is not None and report.get("embedding_index") != expected:
        problems.append(f"embedding_index {report.get('embedding_index')}, expected {expected}")
    return problems + check_stationary_report(report)


def is_heckeaf_error(stage) -> bool:
    import heckeaf.errors

    cls = getattr(heckeaf.errors, str(stage), None)
    return isinstance(cls, type) and issubclass(cls, heckeaf.errors.HeckeafError)


def check_mcf_output(digits, recovered, period, export) -> list:
    """One mcf-random case: the generated cycle `digits`, what
    bauer_factorize recovered, the detected period and the JSON export."""
    problems = []
    n = len(digits[0]) + 1
    if _digits(recovered) != _digits(digits):
        problems.append(f"bauer_factorize gave {recovered}, generated {digits}")
    if not same_cycle(_digits(period), _digits(digits)):
        problems.append("detected period is not a rotation of the generated cycle")
    if export.get("type") != "stationary" or export.get("rank") != n:
        return problems + ["export is not a stationary diagram of the right rank"]
    if _digits(export["digits"]) != _digits(period):
        problems.append("exported digits differ from the detected period")
    matrix = _ints(export["period_matrix"])
    if matrix != block_product(_digits(export["digits"]), n):
        problems.append("period_matrix is not the product of B(d) over its digits")
    return problems + check_char_poly(matrix, export["char_poly"])
