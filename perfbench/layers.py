"""Per-layer metrics from cProfile statistics, grouped by module file.

A layer is one module of heckeaf, plus the stdlib `fractions` module,
where all exact arithmetic ends up.  Its self time is the summed
`tottime` of the functions defined in its file.  A named function gives
its inclusive time (`.s`, cProfile's `cumtime`) or its exact call count
(`.calls`).  Every value is divided by the number of traced cases.
"""

from __future__ import annotations

import importlib
import os

LAYERS = {
    "cli": "heckeaf.cli",
    "hecke": "heckeaf.hecke",
    "afalg": "heckeaf.afalg",
    "mcf": "heckeaf.mcf",
    "exactnum.field": "heckeaf.exactnum.field",
    "exactnum.polynomial": "heckeaf.exactnum.polynomial",
    "exactnum.intmat": "heckeaf.exactnum.intmat",
    "exactnum.lattice": "heckeaf.exactnum.lattice",
    "exactnum.units": "heckeaf.exactnum.units",
    "fractions": "fractions",
}

# (layer, function, kind): kind "s" is inclusive seconds, "calls" a count
FUNCTIONS = (
    ("hecke", "load_newform", "s"),
    ("hecke", "verify_eigenform", "s"),
    ("hecke", "af_of_eigenform", "s"),
    ("mcf", "periodicity_roundtrip", "calls"),
    ("mcf", "satz12_eigenvector", "calls"),
    ("mcf", "bauer_factorize", "calls"),
    ("exactnum.units", "_attractor_data", "calls"),
    ("exactnum.units", "find_unit", "s"),
    ("exactnum.units", "make_nonnegative", "s"),
    ("exactnum.intmat", "mat_inverse_fraction", "calls"),
    ("exactnum.intmat", "mat_det", "calls"),
    ("fractions", "Fraction.__new__", "calls"),
    ("exactnum.field", "FieldElement.__mul__", "calls"),
    ("exactnum.field", "FieldElement.inverse", "calls"),
    ("exactnum.field", "_interval_horner", "calls"),
    ("exactnum.field", "RealRootInterval.refined", "calls"),
    ("exactnum.field", "exact_floor", "calls"),
    ("mcf", "jpa_step", "calls"),
    ("mcf", "jpa_expand", "s"),
    ("exactnum.lattice", "endomorphism_ring", "s"),
    ("afalg", "export_bratteli", "s"),
    ("cli", "report_json", "s"),
)

SELF_LAYERS = (
    "hecke", "exactnum.units", "exactnum.intmat", "fractions", "exactnum.field",
    "exactnum.polynomial", "mcf", "exactnum.lattice", "afalg", "cli",
)

# calls of the functions the pipeline repeats today, printed per case
REPEATED = ("periodicity_roundtrip", "satz12_eigenvector", "bauer_factorize")


def metric_units() -> dict:
    """Every per-layer metric name with its unit, in reporting order."""
    units = {f"{layer}.{func}.{kind}": "s" if kind == "s" else "count"
             for layer, func, kind in FUNCTIONS}
    units["mcf.roundtrip_per_result"] = "ratio"
    for layer in SELF_LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["trace.overhead_ratio"] = "ratio"
    return units


class MissingFunction(LookupError):
    """A function named in FUNCTIONS or REPEATED is not in its module."""


def _code_key(layer, func):
    """The cProfile key of a function.  A function that was renamed or
    moved raises MissingFunction rather than reading as 0 calls."""
    obj = importlib.import_module(LAYERS[layer])
    for part in func.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    if code is None:
        raise MissingFunction(f"{LAYERS[layer]}.{func} not found; update perfbench/layers.py")
    return code.co_filename, code.co_firstlineno, code.co_name


def repeated_calls(stats) -> dict:
    """Call counts of the REPEATED mcf functions in one pstats dictionary."""
    out = {}
    for func in REPEATED:
        entry = stats.get(_code_key("mcf", func))
        out[func] = entry[1] if entry else 0
    return out


def layer_metrics(stats, cases: int, stationary_results: int) -> dict:
    """Per-case metrics from a merged pstats dictionary
    {(file, line, name): (primitive calls, calls, tottime, cumtime, callers)}."""
    values = {}
    for layer, func, kind in FUNCTIONS:
        entry = stats.get(_code_key(layer, func))    # None: not called
        total = 0 if entry is None else (entry[3] if kind == "s" else entry[1])
        values[f"{layer}.{func}.{kind}"] = total / cases
    roundtrips = values["mcf.periodicity_roundtrip.calls"] * cases
    values["mcf.roundtrip_per_result"] = (
        roundtrips / stationary_results if stationary_results else 0.0
    )
    files = {
        os.path.realpath(importlib.import_module(LAYERS[layer]).__file__): layer
        for layer in SELF_LAYERS
    }
    self_s = dict.fromkeys(SELF_LAYERS, 0.0)
    real = {}
    for (filename, _, _), entry in stats.items():
        if filename not in real:
            real[filename] = files.get(os.path.realpath(filename))
        layer = real[filename]
        if layer is not None:
            self_s[layer] += entry[2]
    for layer in SELF_LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / cases
    return values
