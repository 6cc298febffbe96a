"""The committed level47a input is what the fixture generator makes."""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def test_level47a_regenerates_byte_identical(tmp_path):
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_fixtures.py"), "--with-47",
         "--out", str(tmp_path)],
        check=True, capture_output=True, timeout=300,
    )
    fresh = (tmp_path / "level47a.json").read_bytes()
    assert fresh == (BENCH / "data" / "level47a.json").read_bytes()
