#!/usr/bin/env python3
"""Median in-process wall time of the stages of `heckeaf af`.

For each fixture (a bundled name or a path, with an optional `@i` that
sets the embedding index) the script runs, REPEATS times after one
untimed warm-up run:

  load    read the fixture file and `load_newform` it (parse and verify)
  af      `af_of_eigenform` (a typed pipeline failure ends the stage),
          split into
    order   the coefficient order End(m) (`endomorphism_ring`)
    expand  the module's Jacobi-Perron expansion (`_attractor_data`),
            with the closed-form unit and realization of a cycling one
    unit    the unit search (`find_unit`), 0 on a cycling run
    form    the non-negative form search (`make_nonnegative`), 0 on a
            cycling run
    rest    the rest of `af_of_eigenform`, a cycling run's checks of its
            closed form (`check_cycle_form`) included
  report  `build_report` plus `report_json`

and, in separate runs, times

  main    the whole in-process `heckeaf.cli.main(["af", path, "--report",
          tmp])`, stdout and stderr captured: the three stages plus what
          the command line adds (parsing the arguments, reading the file,
          writing the report)

and prints the median of each column in milliseconds, then four work
counts of one af stage: its calls of `RealRootInterval.refined` (root
refinements, each a new level of a root's refinement ladder, which the
enclosure walks and the expansions' basis enclosures share), of
`_scaled_value` (the polynomial signs those refinements evaluate), of
`units.mat_det` (the unit search's norm tests, 0 on a cycling run) and
of `mcf.bauer_factorize` (the form search's Bauer peels of its
candidates, 0 on a cycling run).  Each
run loads a fresh field, whose ladders start empty, so the counts are
the same in every run; they are taken in the untimed warm-up run, which
also calls `main` once, so what a process builds at its first call (the
argument parser) is not timed.  The four parts of af are timed by
wrapping the functions of those names where `hecke` calls them, for the
run only, so the pipeline runs as it is.  The fixture is written with its embedding index to a temporary
file first, so the read is a plain file read, as in `heckeaf af
<path>`.  A fixture that does not load (an unknown name, an index that
is not an integer or is out of range) is a usage error (exit code 2),
before anything is timed.

Usage: python3 tools/stage_times.py level23a level71a@2 perfbench/data/level47a.json
"""

from __future__ import annotations

import io
import json
import statistics
import sys
import tempfile
from contextlib import ExitStack, redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from time import perf_counter
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heckeaf import cli, hecke, mcf  # noqa: E402
from heckeaf.cli import build_report, report_json  # noqa: E402
from heckeaf.errors import HeckeafError  # noqa: E402
from heckeaf.exactnum import field, units  # noqa: E402
from heckeaf.hecke import af_of_eigenform, load_newform  # noqa: E402

REPEATS = 11

# the parts of the af stage, by the hecke function each one times
AF_PARTS = {"order": "endomorphism_ring", "expand": "_attractor_data", "unit": "find_unit",
            "form": "make_nonnegative"}
COLUMNS = ("load", *AF_PARTS, "rest", "report", "main")
# the af stage's work counts, by the function each one counts the calls of
COUNTS = {"refined": (field.RealRootInterval, "refined"), "scaled": (field, "_scaled_value"),
          "norms": (units, "mat_det"), "peels": (mcf, "bauer_factorize")}


def fixture_text(spec: str) -> str:
    """The fixture text of `name[@i]`, with embedding_index i written in."""
    name, _, index = spec.partition("@")
    path = Path(name)
    if path.exists():
        text = path.read_text()
    else:
        text = resources.files("heckeaf.fixtures").joinpath(f"{name}.json").read_text()
    if not index:
        return text
    return json.dumps(dict(json.loads(text), embedding_index=int(index)))


def _timed(function, spent: dict, part: str):
    """function, adding the wall time of each call to spent[part]."""
    def wrapper(*args, **kwargs):
        started = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            spent[part] += perf_counter() - started
    return wrapper


def _counted(function, counts: dict, name: str):
    """function, adding 1 to counts[name] at each call."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return function(*args, **kwargs)
    return wrapper


def stage_times(path: Path, counts: dict | None = None):
    """One run of the stages on the fixture file: their wall times, in the
    order of COLUMNS.  With a dict counts, the af stage's calls of the
    functions in COUNTS are counted into it, by name."""
    spent = dict.fromkeys(AF_PARTS, 0.0)
    started = perf_counter()
    f = load_newform(path.read_text())
    loaded = perf_counter()
    result = error = None
    with ExitStack() as stack:
        for part, name in AF_PARTS.items():
            timed = _timed(getattr(hecke, name), spent, part)
            stack.enter_context(patch.object(hecke, name, timed))
        for name, (owner, attribute) in (COUNTS.items() if counts is not None else ()):
            counted = _counted(getattr(owner, attribute), counts, name)
            stack.enter_context(patch.object(owner, attribute, counted))
        began = perf_counter()
        try:
            result = af_of_eigenform(f)
        except HeckeafError as exc:
            error = {"stage": type(exc).__name__, "message": str(exc)}
        computed = perf_counter()
    report_json(build_report(f, result=result, error=error, timings={"total_s": "0"}))
    reported = perf_counter()
    parts = list(spent.values())
    return (loaded - started, *parts, computed - began - sum(parts), reported - computed)


def main_time(path: Path, report: Path) -> float:
    """The wall time of one in-process `heckeaf af <path> --report
    <report>`, with its output captured."""
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        started = perf_counter()
        cli.main(["af", str(path), "--report", str(report)])
        return perf_counter() - started


def main(specs) -> int:
    if not specs:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    for spec in specs:
        try:
            load_newform(fixture_text(spec))
        except (OSError, ValueError, HeckeafError) as exc:
            print(f"stage_times.py: cannot load {spec}: {exc}", file=sys.stderr)
            return 2
    header = " ".join(f"{column + ' ms':>9}" for column in COLUMNS)
    header += "".join(f" {name:>8}" for name in COUNTS)
    print(f"{'fixture':<32} {header}   (median of {REPEATS}; af calls per run)")
    with tempfile.TemporaryDirectory() as tmp:
        for spec in specs:
            path = Path(tmp) / "fixture.json"
            report = Path(tmp) / "report.json"
            path.write_text(fixture_text(spec))
            counts = dict.fromkeys(COUNTS, 0)
            stage_times(path, counts)
            main_time(path, report)
            runs = [(*stage_times(path), main_time(path, report)) for _ in range(REPEATS)]
            medians = [statistics.median(column) * 1e3 for column in zip(*runs)]
            print(f"{spec:<32} " + " ".join(f"{m:>9.3f}" for m in medians)
                  + "".join(f" {n:>8}" for n in counts.values()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
