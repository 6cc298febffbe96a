"""The benchmark's command: result line, traced counts, and refusal to
run without the program."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _traced(seed):
    proc = _bench(ROOT, "--workload", "af-bundled", "--seed", str(seed),
                  "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_traced_call_counts_repeat_exactly():
    first, second = _traced(3), _traced(3)
    assert list(first) == [m["name"] for m in SPEC["per_layer"]]
    calls = [name for name in first if name.endswith(".calls")]
    assert calls
    assert {n: first[n]["value"] for n in calls} == {n: second[n]["value"] for n in calls}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "--workload", "af-bundled", "--seed", "1",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
