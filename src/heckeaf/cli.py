"""Command-line surface.

Subcommands: cf (regular continued fractions), jpa (Jacobi-Perron
expansions), factor (block factorization of a non-negative unimodular
matrix), af (the eigenform pipeline with JSON reports).

Exit codes: 0 success, 2 input/parse error, 3 domain error, 4 pipeline
failure.  Reports serialize unbounded integers as strings.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .afalg import TrivialAF, _integers, _matrix_strings, af_from_expansion, export_bratteli
from .errors import (
    HeckeafError,
    HeckeRelationViolated,
    NonnegativeFormNotFound,
    NotFactorizable,
    NotNormalized,
    RoundTripMismatch,
    SchemaError,
    ShapeMismatch,
    UnitNotFound,
)
from .exactnum.field import make_field, sign_at
from .exactnum.polynomial import IntPolynomial
from .hecke import (
    _parse_rational,
    _row_element,
    af_of_eigenform,
    bundled_fixture_names,
    companion_of_conjugates,
    load_fixture,
    load_newform,
)
from .mcf import JpaExpansion, bauer_factorize, convergents_from_digits, jpa_expand, regular_cf

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_PIPELINE = 4

# sign, digits, x-part, exponent; a '*' stands only between digits and x
_TERM_RE = re.compile(r"([+-]?)(?:([0-9]+)(?:\*(?=x))?)?(x(?:\^([0-9]+))?)?")
# the largest exponent parse_poly accepts: it is checked before the dense
# coefficient tuple is built, so a text like x^100000000 is an input error
# at once instead of a 10^8-entry tuple.  Fields here are far smaller; the
# exact kernels are dense and at least quadratic in the degree.
_MAX_DEGREE = 1000


class InputError(Exception):
    pass


def parse_poly(text: str) -> IntPolynomial:
    """Parse polynomials like x^2-2, x^3 - x - 1, 2x^2+3, 2*x, of degree
    at most _MAX_DEGREE."""
    s = text.replace(" ", "")
    if not s:
        raise InputError("empty polynomial")
    chunks = re.findall(r"[+-]?[^+-]+", s)
    if "".join(chunks) != s:
        raise InputError(f"misplaced sign in {text!r}")
    coeffs = {}
    for chunk in chunks:
        m = _TERM_RE.fullmatch(chunk)
        if not m:
            raise InputError(f"cannot parse term {chunk!r} in {text!r}")
        sign, digits, xpart, exp_s = m.groups()
        try:
            deg = 0 if xpart is None else int(exp_s or 1)
            coef = int(digits or 1) * (-1 if sign == "-" else 1)
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"cannot parse term {chunk!r}: {exc}") from exc
        if deg > _MAX_DEGREE:
            raise InputError(f"exponent {deg} in {text!r} exceeds the degree bound {_MAX_DEGREE}")
        coeffs[deg] = coeffs.get(deg, 0) + coef
    top = max(coeffs)
    return IntPolynomial(tuple(coeffs.get(d, 0) for d in range(top + 1)))


def parse_rational(text: str) -> tuple:
    try:
        return _parse_rational(text)
    except SchemaError as exc:
        raise InputError(str(exc)) from exc


def _parse_theta(text: str, field):
    """Semicolon-separated coordinate vectors of the fixture grammar."""
    out = []
    for part in text.split(";"):
        row = part.split(",")
        if len(row) > field.degree:
            raise InputError(
                f"coordinate vector {part!r} too long for degree {field.degree}"
            )
        try:
            out.append(_row_element(field, row))
        except SchemaError as exc:
            raise InputError(str(exc)) from exc
    return tuple(out)


def parse_matrix(text: str):
    """An integer matrix from a JSON literal or a file containing one."""
    stripped = text.strip()
    if not stripped.startswith("["):
        path = Path(stripped)
        if not path.exists():
            raise InputError(f"no such matrix file: {text}")
        stripped = path.read_text()
    try:
        rows = _integers(json.loads(stripped), 2, "matrix")
    except ValueError as exc:  # JSONDecodeError, or an integer past int()'s digit limit
        raise InputError(f"matrix is not valid JSON: {exc}") from exc
    except ShapeMismatch as exc:
        raise InputError(str(exc)) from exc
    if not rows or any(len(r) != len(rows) for r in rows):
        raise InputError("matrix must be square and non-empty")
    return rows


def _digits_str(digits) -> str:
    if not digits:
        return "[]"
    if len(digits[0]) == 1:
        return "[" + ", ".join(str(d[0]) for d in digits) + "]"
    return "[" + ", ".join("(" + ",".join(str(b) for b in d) + ")" for d in digits) + "]"


def _print_expansion(exp: JpaExpansion) -> None:
    if exp.terminated:
        print(f"{_digits_str(exp.digits)} (terminating)")
    elif exp.is_periodic():
        print(f"preperiod {_digits_str(exp.preperiod)}, period {_digits_str(exp.period)}")
    else:
        print(
            f"no period detected within {len(exp.digits)} steps; "
            f"digits so far {_digits_str(exp.digits[:24])}"
        )


# ---------------------------------------------------------------------------
# cf

def _check_step_budget(max_steps: int) -> None:
    if max_steps < 0:
        raise InputError(f"--max-steps must be non-negative, got {max_steps}")


def cmd_cf(args) -> int:
    _check_step_budget(args.max_steps)
    if args.value is not None:
        x = Fraction(*parse_rational(args.value))
        if x <= 0:
            raise HeckeafError(f"need a positive value, got {x}")
        exp = regular_cf(x, max_terms=args.max_steps)
    else:
        if args.poly is None:
            raise InputError("give a rational value or --poly/--root")
        field = make_field(parse_poly(args.poly))
        if not field.real_roots:
            raise HeckeafError(f"{args.poly} has no real roots")
        if not 0 <= args.root < len(field.real_roots):
            raise InputError(
                f"--root {args.root} out of range; {len(field.real_roots)} real roots"
            )
        root = field.real_roots[args.root]
        if sign_at(field.gen, root) <= 0:
            raise HeckeafError("the chosen root is not positive; pick another --root")
        exp = regular_cf(field.gen, root, max_terms=args.max_steps)
    _print_expansion(exp)
    convs = convergents_from_digits(exp.digits[:12])
    if convs:
        print("convergents: " + ", ".join(f"{p}/{q}" for p, q in convs))
    return EXIT_OK


# ---------------------------------------------------------------------------
# jpa

def cmd_jpa(args) -> int:
    _check_step_budget(args.max_steps)
    field = make_field(parse_poly(args.poly))
    if not field.real_roots:
        raise HeckeafError(f"{args.poly} has no real roots")
    if not 0 <= args.root < len(field.real_roots):
        raise InputError(f"--root {args.root} out of range")
    root = field.real_roots[args.root]
    theta = _parse_theta(args.theta, field)
    for t in theta:
        if sign_at(t, root) <= 0:
            raise HeckeafError(f"coordinate {t} is not positive at the embedding")
    exp = jpa_expand(theta, root, max_steps=args.max_steps)
    _print_expansion(exp)
    if args.export:
        fmt, path = args.export
        if fmt not in ("dot", "json"):
            raise InputError(f"unknown export format {fmt!r}")
        descriptor = af_from_expansion(exp)
        Path(path).write_text(export_bratteli(descriptor, fmt))
        print(f"wrote {fmt} export to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# factor

def cmd_factor(args) -> int:
    matrix = parse_matrix(args.matrix)
    try:
        digits = bauer_factorize(matrix)
    except ValueError as exc:
        raise HeckeafError(str(exc)) from exc
    except NotFactorizable as exc:
        print(f"factorization stalled: {exc}", file=sys.stderr)
        print(f"partial digits: {_digits_str(exc.partial)}", file=sys.stderr)
        return EXIT_DOMAIN
    print(_digits_str(digits))
    return EXIT_OK


# ---------------------------------------------------------------------------
# af

def _fixture_path_or_name(text: str):
    path = Path(text)
    if path.exists():
        # bytes: text that is not UTF-8 is a SchemaError of the JSON parse
        return load_newform(path.read_bytes())
    if text in bundled_fixture_names():
        return load_fixture(text)
    raise InputError(f"no fixture file or bundled fixture named {text!r}")


def _poly_strings(poly: IntPolynomial):
    return [str(c) for c in poly.coeffs]


def _expansion_payload(exp: JpaExpansion):
    return {
        "preperiod": [[str(b) for b in d] for d in exp.preperiod],
        "period": [[str(b) for b in d] for d in exp.period],
        "terminated": exp.terminated,
    }


def _report_header() -> dict:
    return {"schema_version": "1", "tool": "heckeaf", "tool_version": __version__}


def build_report(f, result=None, companion=None, error=None, timings=None) -> dict:
    report = {
        **_report_header(),
        "label": f.label,
        "level": f.level,
        "weight": f.weight,
        "field_poly": _poly_strings(f.field.minpoly),
        "degree": f.field.degree,
        "coefficient_count": f.count,
    }
    if result is not None:
        report["module"] = {
            "den": str(result.module.den),
            "rows": _matrix_strings(result.module.rows),
        }
        if isinstance(result.af, TrivialAF):
            report["type"] = "trivial"
        else:
            report["type"] = "stationary"
            report["order"] = {
                "den": str(result.order.module.den),
                "rows": _matrix_strings(result.order.module.rows),
            }
            report["unit"] = {
                "coords": [str(c) for c in result.unit.element.coords],
                "norm": str(result.unit.norm),
            }
            report["matrix_a"] = _matrix_strings(result.matrix_a)
            realization = result.realization
            report["nonneg"] = {
                "matrix": _matrix_strings(realization.matrix),
                "power": realization.power,
                "transform": _matrix_strings(realization.transform),
            }
            report["digits"] = [[str(b) for b in d] for d in result.af.digits]
            report["char_poly"] = _poly_strings(result.af.char_poly)
            report["expansion"] = _expansion_payload(realization.roundtrip.expansion)
            report["embedding_index"] = result.embedding_index
            report["per_conjugate"] = [
                {
                    "embedding_index": cs.embedding_index,
                    "embedding": list(cs.embedding),
                    "unit_image": list(cs.unit_image),
                    "expanding": cs.expanding,
                    "char_poly": report["char_poly"],
                }
                for cs in result.per_conjugate
            ]
    if companion is not None:
        report["companion"] = {
            "conjugates": companion.conjugates,
            "char_polys": [_poly_strings(p) for p in companion.char_polys],
            "all_equal": companion.all_equal,
            "pairwise_verdicts": [
                {"i": i, "j": j, "verdict": v} for i, j, v in companion.pairwise_verdicts
            ],
            "module_galois_stable": companion.module_galois_stable,
        }
    if error is not None:
        report["error"] = error
    if timings is not None:
        report["timings"] = timings
    return report


def report_json(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def _emit_report(text: str, report_path) -> None:
    if report_path:
        Path(report_path).write_text(text)
        print(f"report written to {report_path}")
    else:
        print(text, end="")


def cmd_af(args) -> int:
    started = time.monotonic()
    try:
        f = _fixture_path_or_name(args.fixture)
    except (HeckeafError, InputError, OSError) as exc:
        # no fixture, an unreadable path, or one that fails its checks
        report = {
            **_report_header(),
            "fixture": args.fixture,
            "error": {"stage": type(exc).__name__, "message": str(exc)},
        }
        _emit_report(report_json(report), args.report)
        print(f"fixture rejected: {exc}", file=sys.stderr)
        if isinstance(exc, (InputError, OSError, SchemaError, NotNormalized,
                            HeckeRelationViolated)):
            return EXIT_INPUT
        return EXIT_DOMAIN
    result = None
    companion = None
    error = None
    code = EXIT_OK
    try:
        result = af_of_eigenform(f)
        if args.conjugates:
            companion = companion_of_conjugates(f, result)
    except (UnitNotFound, NonnegativeFormNotFound, NotFactorizable,
            RoundTripMismatch) as exc:
        error = {"stage": type(exc).__name__, "message": str(exc)}
        code = EXIT_PIPELINE
    except HeckeafError as exc:
        error = {"stage": type(exc).__name__, "message": str(exc)}
        code = EXIT_DOMAIN
        print(f"error: {exc}", file=sys.stderr)
    timings = {"total_s": f"{time.monotonic() - started:.3f}"}
    report = build_report(f, result=result, companion=companion,
                          error=error, timings=timings)
    _emit_report(report_json(report), args.report)
    if result is not None and code == EXIT_OK:
        kind = "trivial" if isinstance(result.af, TrivialAF) else "stationary"
        print(f"{f.label}: {kind}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="heckeaf",
        description="Exact continued fractions, block factorizations, and "
                    "the stationary AF data of weight-2 Hecke eigenforms.",
    )
    ap.add_argument("--version", action="version", version=f"heckeaf {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_cf = sub.add_parser("cf", help="regular continued fraction expansion")
    p_cf.add_argument("value", nargs="?", help="positive rational like 355/113")
    p_cf.add_argument("--poly", help="minimal polynomial, e.g. x^2-2")
    p_cf.add_argument("--root", type=int, default=0,
                      help="index of the real root (ascending), default 0")
    p_cf.add_argument("--max-steps", type=int, default=10_000)
    p_cf.set_defaults(func=cmd_cf)

    p_jpa = sub.add_parser("jpa", help="Jacobi-Perron expansion of a field vector")
    p_jpa.add_argument("--poly", required=True, help="field polynomial, e.g. x^3-x-1")
    p_jpa.add_argument("--theta", required=True,
                       help="semicolon-separated coordinate vectors, e.g. '0,1,0;0,0,1'")
    p_jpa.add_argument("--root", type=int, default=0)
    p_jpa.add_argument("--max-steps", type=int, default=10_000)
    p_jpa.add_argument("--export", nargs=2, metavar=("FORMAT", "PATH"),
                       help="write the diagram: dot|json and an output path")
    p_jpa.set_defaults(func=cmd_jpa)

    p_fac = sub.add_parser("factor", help="block-factorize a non-negative unimodular matrix")
    p_fac.add_argument("matrix", help="JSON matrix literal or a path to one")
    p_fac.set_defaults(func=cmd_factor)

    p_af = sub.add_parser("af", help="run the eigenform pipeline on a fixture")
    p_af.add_argument("fixture", help="fixture path or bundled name (e.g. level23a)")
    p_af.add_argument("--conjugates", action="store_true",
                      help="also compare the conjugate family")
    p_af.add_argument("--report", help="write the JSON report to this path")
    p_af.set_defaults(func=cmd_af)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else EXIT_INPUT
        return EXIT_OK if code == 0 else EXIT_INPUT
    try:
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except HeckeafError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
