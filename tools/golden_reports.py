#!/usr/bin/env python3
"""Write the `heckeaf af` golden reports the test suite compares against.

One report per bundled fixture at each of its real embeddings, once
plain and once with `--conjugates` (file stem suffix `.conjugates`),
plus level47a (from perfbench/data) at each of its four real
embeddings: `level47a` at its default embedding 3 and `level47a@0`,
`@1` and `@2` at the others.  Each ends in NonnegativeFormNotFound with
exit code 4, so the reports pin the high-precision enclosure walks of
all four real roots.  The
`timings` block is dropped, so a report is a pure function of the code
and the fixture; any change to these bytes is a change of behaviour.

Usage: python3 tools/golden_reports.py [--out DIR]   (default tests/golden)
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heckeaf import cli  # noqa: E402
from heckeaf.exactnum.field import make_field  # noqa: E402
from heckeaf.exactnum.polynomial import IntPolynomial  # noqa: E402
from heckeaf.hecke import bundled_fixture_names  # noqa: E402

FIXTURES = ROOT / "src" / "heckeaf" / "fixtures"
LEVEL47A = ROOT / "perfbench" / "data" / "level47a.json"


def golden_cases():
    """(file stem, fixture dict, extra `af` options) for every golden
    report, in a fixed order."""
    cases = []
    for name in bundled_fixture_names():
        data = json.loads((FIXTURES / f"{name}.json").read_text())
        field = make_field(IntPolynomial(tuple(data["field_poly"])))
        for i in range(len(field.real_roots)):
            fixture = dict(data, embedding_index=i)
            cases.append((f"{name}@{i}", fixture, ()))
            cases.append((f"{name}@{i}.conjugates", fixture, ("--conjugates",)))
    level47a = json.loads(LEVEL47A.read_text())
    for i in range(3):
        cases.append((f"level47a@{i}", dict(level47a, embedding_index=i), ()))
    cases.append(("level47a", level47a, ()))
    return cases


def report_text(fixture: dict, options=()) -> str:
    """The exit code and the report of `heckeaf af` on the fixture, with
    `timings` removed, as the text of one JSON document."""
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "fixture.json"
        target = Path(tmp) / "report.json"
        source.write_text(json.dumps(fixture))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["af", str(source), "--report", str(target), *options])
        report = json.loads(target.read_text())
    report.pop("timings", None)
    return json.dumps({"exit_code": code, "report": report}, indent=1, sort_keys=True) + "\n"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=ROOT / "tests" / "golden")
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for stem, fixture, options in golden_cases():
        path = args.out / f"{stem}.json"
        path.write_text(report_text(fixture, options))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
