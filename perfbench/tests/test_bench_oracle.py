"""The oracle accepts real outputs and counts corrupted ones as failed;
the traced run's bookkeeping refuses names it cannot resolve; the speed
probe samples within a span."""

import copy
import json
import random
import signal
import sys
from pathlib import Path
from time import perf_counter

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

# the workloads are built on the package imported here, not with
# run.fresh_import(), which would swap heckeaf's modules under the other
# tests of this process
import heckeaf.afalg  # noqa: E402
import heckeaf.cli  # noqa: E402
import heckeaf.mcf  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Record  # noqa: E402


def _bump(rows, i, j=None):
    """Add one to a string-encoded integer entry."""
    if j is None:
        rows[i] = str(int(rows[i]) + 1)
    else:
        rows[i][j] = str(int(rows[i][j]) + 1)


def _outputs(case, records):
    outputs = {}
    for record in records:
        run.tally(outputs, case, record)
    return outputs


def test_corrupted_af_reports_are_counted_as_failed(tmp_path):
    workload = workloads.bundled_workload(BENCH.parent, tmp_path, seed=1)
    workload.build(heckeaf)
    case = next(c for c in workload.cases if c.label == "level71a@2")
    good = workload.collect(case, run.attempt(workload, case))
    assert good.code == 0 and good.output["type"] == "stationary"

    changed_entry = copy.deepcopy(good.output)
    _bump(changed_entry["nonneg"]["matrix"], 0, 0)
    wrong_digit = copy.deepcopy(good.output)
    _bump(wrong_digit["digits"], 0, 1)
    wrong_poly = copy.deepcopy(good.output)
    _bump(wrong_poly["char_poly"], 0)
    bad = [Record(good.code, r) for r in (changed_entry, wrong_digit, wrong_poly)]

    failed, verdicts = run.check_all(workload, _outputs(case, [good, good] + bad))
    assert failed == len(bad)
    assert sum(bool(problems) for problems in verdicts.values()) == len(bad)


def test_typed_pipeline_failure_counts_as_correct():
    fixture = json.loads((BENCH / "data" / "level47a.json").read_text())
    report = {"label": fixture["label"], "level": fixture["level"],
              "field_poly": [str(c) for c in fixture["field_poly"]],
              "error": {"stage": "NonnegativeFormNotFound", "message": ""}}
    assert oracle.check_af_report(report, 4, fixture) == []
    report["error"]["stage"] = "ValueError"
    assert oracle.check_af_report(report, 4, fixture)
    assert oracle.check_af_report(report, 3, fixture)


def test_corrupted_mcf_outputs_are_counted_as_failed():
    workload = workloads.McfWorkload(seed=5)
    workload.build(heckeaf)
    case = next(c for c in workload.pool[0] if c.label.startswith("n3-L3"))
    good = workload.collect(case, run.attempt(workload, case))

    wrong_digit = copy.deepcopy(good.output)
    wrong_digit["recovered"][0][1] += 1
    changed_entry = copy.deepcopy(good.output)
    _bump(changed_entry["export"]["period_matrix"], 1, 2)
    wrong_poly = copy.deepcopy(good.output)
    _bump(wrong_poly["export"]["char_poly"], 0)
    bad = [Record(None, out) for out in (wrong_digit, changed_entry, wrong_poly)]

    failed, _ = run.check_all(workload, _outputs(case, [good] + bad + bad))
    assert failed == 2 * len(bad)


def test_tail_is_a_nearest_rank_percentile():
    samples = list(range(1, 201))
    random.Random(0).shuffle(samples)
    assert run.tail(samples, 95) == (190, 10)
    assert run.tail(samples, 99.9) == (200, 0)
    assert run.tail([3.0, 1.0, 2.0], None) == (3.0, 0)


def test_a_renamed_layer_function_is_an_error_not_zero():
    assert layers._code_key("mcf", "jpa_step")[2] == "jpa_step"
    with pytest.raises(layers.MissingFunction):
        layers._code_key("mcf", "no_such_function")


def test_speed_probe_samples_within_a_span_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    probe = run.SpeedProbe()
    with probe.span():
        end = perf_counter() + 2.5 * run.SAMPLE_EVERY
        while perf_counter() < end:
            pass
    # one sample at each end and at least one from the timer within
    assert len(probe.samples) >= 3
    assert probe.spent > 0 and probe.scale > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
