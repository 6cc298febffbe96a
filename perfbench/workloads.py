"""The benchmark's workloads: inputs built from a seed, and one case run.

Each workload loads its inputs in `build` (the timed set-up), yields
its cases in rounds from `rounds`, runs one case in `run` (the timed
part) and turns the raw result into a record in `collect`.  `check`
compares a record with the oracle and `digest` names its content, so
that two commits can be compared case by case.

Each workload pins the percentile its tail is read at (tail_percentile):
the highest of p50, p75, p90, p95, p99 and p99.9 with at least ten cases
beyond it in a run at this commit, or None for the maximum when none has
ten.  Choosing it per run instead would move a faster commit's tail to a
higher percentile, and runs near a switching count would jump between two.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

# the sympy oracle is imported only where outputs are checked, after the
# timed loop has read the process's peak memory
HERE = Path(__file__).resolve().parent

# bundled fixtures and their number of real embeddings: 9 cases in all
BUNDLED = (("level11a", 1), ("level23a", 2), ("level71a", 3), ("level71b", 3))
# level47a has 4 real embeddings and runs at its default (largest) one.
# Embedding 0 is left out: there one round-trip candidate runs 10 000
# exact JPA steps and the case did not finish within 600 s, so it cannot
# be timed until searches are budgeted.
DEG4 = ("level47a", 4, (3,))


@dataclass(frozen=True)
class Record:
    """What one case produced: the exit code (None for a library call),
    the parsed output, or the exception it raised."""

    code: int | None
    output: object
    error: str | None = None

    @property
    def digest(self) -> str:
        if self.error is not None:
            return f"raised {self.error}"
        body = self.output
        if isinstance(body, dict):
            body = {k: v for k, v in body.items() if k != "timings"}
        text = json.dumps(body, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def _failed(exc) -> Record:
    return Record(None, None, f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# af-bundled and af-deg4: `heckeaf af <fixture> --report <path>` in process

@dataclass(frozen=True)
class AfCase:
    label: str
    path: Path
    fixture: dict
    default: bool        # the fixture's default (largest) embedding


class AfWorkload:
    trace_rounds = 1

    def __init__(self, fixtures, workdir: Path, seed: int, tail_percentile):
        self.fixtures = fixtures          # ((name, source path, embeddings, count), ...)
        self.workdir = workdir
        self.seed = seed
        self.tail_percentile = tail_percentile
        self.report = workdir / "report.json"

    def build(self, heckeaf) -> None:
        """Copy each fixture once per embedding with embedding_index fixed."""
        self.cli = heckeaf.cli
        cases = []
        for name, source, embeddings, count in self.fixtures:
            data = json.loads(Path(source).read_text())
            for i in embeddings:
                fixture = dict(data, embedding_index=i)
                path = self.workdir / f"{name}@{i}.json"
                path.write_text(json.dumps(fixture, indent=1) + "\n")
                cases.append(AfCase(f"{name}@{i}", path, fixture, i == count - 1))
        self.cases = cases

    def rounds(self):
        """Every case once per round; the seed only permutes the order."""
        rng = random.Random(self.seed)
        while True:
            order = list(self.cases)
            rng.shuffle(order)
            yield order

    def run(self, case: AfCase):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self.cli.main(["af", str(case.path), "--report", str(self.report)])

    def collect(self, case: AfCase, code) -> Record:
        if isinstance(code, Exception):
            return _failed(code)
        try:
            report = json.loads(self.report.read_text())
        except FileNotFoundError:
            report = None
        self.report.unlink(missing_ok=True)
        return Record(code, report)

    def check(self, case: AfCase, record: Record) -> list:
        import oracle

        if record.error is not None:
            return [f"raised {record.error}"]
        return oracle.check_af_report(record.output, record.code, case.fixture)

    def is_stationary(self, record: Record) -> bool:
        return isinstance(record.output, dict) and record.output.get("type") == "stationary"


def bundled_workload(root: Path, workdir: Path, seed: int) -> AfWorkload:
    fixtures = root / "src" / "heckeaf" / "fixtures"
    return AfWorkload(
        [(name, fixtures / f"{name}.json", range(count), count) for name, count in BUNDLED],
        workdir, seed, tail_percentile=95,
    )


def deg4_workload(root: Path, workdir: Path, seed: int) -> AfWorkload:
    name, count, embeddings = DEG4
    source = HERE / "data" / f"{name}.json"
    return AfWorkload([(name, source, embeddings, count)], workdir, seed, tail_percentile=None)


# ---------------------------------------------------------------------------
# mcf-random: factor, round-trip, describe and export a block product

@dataclass(frozen=True)
class McfCase:
    label: str
    digits: tuple
    matrix: tuple


class McfWorkload:
    trace_rounds = 2
    tail_percentile = 95

    def __init__(self, seed: int):
        """Make the inputs once, outside the timed set-up, in a child
        process (see mcf_inputs.py)."""
        proc = subprocess.run(
            [sys.executable, str(HERE / "mcf_inputs.py"), str(seed)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        self.inputs = proc.stdout

    def build(self, heckeaf) -> None:
        """Load the prebuilt rounds of cases."""
        self.mcf, self.afalg = heckeaf.mcf, heckeaf.afalg
        self.pool = [
            [McfCase(label, tuple(map(tuple, digits)), tuple(map(tuple, matrix)))
             for label, digits, matrix in round_]
            for round_ in json.loads(self.inputs)
        ]

    def rounds(self):
        while True:
            yield from self.pool

    def run(self, case: McfCase):
        recovered = self.mcf.bauer_factorize(case.matrix)
        expansion = self.mcf.periodicity_roundtrip(case.matrix)
        export = self.afalg.export_bratteli(self.afalg.af_from_expansion(expansion), "json")
        return recovered, expansion.period, export

    def collect(self, case: McfCase, raw) -> Record:
        if isinstance(raw, Exception):
            return _failed(raw)
        recovered, period, export = raw
        return Record(None, {"recovered": [list(d) for d in recovered],
                             "period": [list(d) for d in period],
                             "export": json.loads(export)})

    def check(self, case: McfCase, record: Record) -> list:
        import oracle

        if record.error is not None:
            return [f"raised {record.error}"]
        out = record.output
        return oracle.check_mcf_output(case.digits, out["recovered"], out["period"], out["export"])

    def is_stationary(self, record: Record) -> bool:
        return record.error is None and record.output["export"].get("type") == "stationary"


WORKLOADS = {
    "af-bundled": bundled_workload,
    "af-deg4": deg4_workload,
    "mcf-random": lambda root, workdir, seed: McfWorkload(seed),
}
