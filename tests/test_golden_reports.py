"""The `heckeaf af` report of every golden case, byte for byte.

The files under tests/golden were written by tools/golden_reports.py;
a refactor of the pipeline must leave every one of them unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

_spec = importlib.util.spec_from_file_location("golden_reports", ROOT / "tools" / "golden_reports.py")
golden_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden_reports)

CASES = golden_reports.golden_cases()


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(stem for stem, _, _ in CASES)


@pytest.mark.parametrize("stem,fixture,options", CASES, ids=[stem for stem, _, _ in CASES])
def test_report_matches_golden(stem, fixture, options):
    assert golden_reports.report_text(fixture, options) == (GOLDEN / f"{stem}.json").read_text()
