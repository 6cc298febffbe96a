#!/usr/bin/env python3
"""heckeaf benchmark: one workload per run, a closed loop in one thread.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload af-bundled --seed 1 --seconds 20 --trace 0

With --trace 0 the run times cases back to back for --seconds seconds
(each case starts when the previous one has finished) and prints the
end-to-end metrics.  With --trace 1 it runs a fixed set of the same
cases once untraced and once under cProfile and prints the per-layer
metrics.  Either way every output is checked against the sympy oracle
outside the timed region, and the last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

heckeaf is imported from the checkout's own src/ directory; without it
the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import cProfile
import gc
import json
import math
import pstats
import resource
import shutil
import signal
import statistics
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# set-ups timed in a run; setup_s is their median
SETUPS = 25
# The reference: a fixed exact-arithmetic loop of REF_TERMS terms, timed
# at each end of every timed span and every SAMPLE_EVERY seconds within
# it.  Timings are scaled to the speed at which the loop takes REF_S.
REF_TERMS = 1500
REF_S = 0.0065
SAMPLE_EVERY = 0.25


def fresh_import():
    """Import heckeaf afresh, as a new process would."""
    for name in [m for m in sys.modules if m == "heckeaf" or m.startswith("heckeaf.")]:
        del sys.modules[name]
    import heckeaf.afalg
    import heckeaf.cli
    import heckeaf.mcf

    return heckeaf


def set_up(workload) -> float:
    """Time one set-up: import heckeaf afresh and load the workload's
    inputs into a copy of it.  The modules the timed cases run on are put
    back afterwards, so a set-up between cases does not change them."""
    live = {m: mod for m, mod in sys.modules.items()
            if m == "heckeaf" or m.startswith("heckeaf.")}
    try:
        started = perf_counter()
        copy.copy(workload).build(fresh_import())
        return perf_counter() - started
    finally:
        for name in [m for m in sys.modules if m == "heckeaf" or m.startswith("heckeaf.")]:
            del sys.modules[name]
        sys.modules.update(live)


def reference() -> float:
    """Wall time of the reference loop, with the cyclic collector off so
    that the heap heckeaf leaves behind does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        total = Fraction(0)
        for i in range(1, REF_TERMS + 1):
            total += Fraction(1, i)
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine's speed while a span of work runs.

    The shared machine the benchmark was tuned on changes speed by up to
    twice, in phases of seconds to minutes, in CPU time as in wall time.
    The probe times the reference at each end of a span and, from a
    SIGALRM handler, every SAMPLE_EVERY seconds within it.  `spent` is the
    time the handler took, which the caller leaves out of the span's
    timings."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _sample(self, *_):
        started = perf_counter()
        self.samples.append(reference())
        self.spent += perf_counter() - started

    @contextlib.contextmanager
    def span(self):
        """Sample before, within and after the body; afterwards `scale`
        turns the body's wall time into seconds at the reference speed."""
        self.samples = []
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()
        self.scale = REF_S / statistics.fmean(self.samples)


def attempt(workload, case):
    try:
        return workload.run(case)
    except Exception as exc:  # a raising case is counted as failed, not fatal
        return exc


def tally(outputs: dict, case, record) -> None:
    """Keep one record per distinct (case label, exit code, digest) and
    count how many cases gave it."""
    key = (case.label, record.code, record.digest)
    if key in outputs:
        outputs[key][2] += 1
    else:
        outputs[key] = [case, record, 1]


def check_all(workload, outputs: dict) -> tuple:
    """(failed cases, {(label, exit code, digest): problems}) for the
    outputs kept by tally; each distinct output is checked once."""
    verdicts = {}
    failed = 0
    for key, (case, record, count) in outputs.items():
        verdicts[key] = workload.check(case, record)
        failed += count if verdicts[key] else 0
    return failed, verdicts


def report_outputs(verdicts) -> None:
    for (label, code, digest), problems in sorted(verdicts.items(), key=str):
        print(f"digest {label} exit={code} {digest}")
        for problem in problems:
            print(f"FAILED {label}: {problem}")


def tail(samples, percentile) -> tuple:
    """(value, cases beyond it) at a nearest-rank percentile, or the
    maximum when percentile is None."""
    ordered = sorted(samples)
    rank = len(ordered) if percentile is None else math.ceil(percentile / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_run(workload, seconds: float):
    workload.build(fresh_import())
    probe = SpeedProbe()
    setups, raw_setups, samples, round_means, speeds, outputs = [], [], [], [], [], {}
    busy = raw_busy = 0.0  # seconds in rounds, at the reference speed and as measured
    started = perf_counter()
    in_setup = 0.0       # time spent in set-ups, left out of the loop's time
    for round_ in workload.rounds():
        if samples and perf_counter() - started - in_setup >= seconds:
            break
        times = []
        with probe.span():
            round_start, round_spent = perf_counter(), probe.spent
            for case in round_:
                t0, spent = perf_counter(), probe.spent
                raw = attempt(workload, case)
                times.append(perf_counter() - t0 - (probe.spent - spent))
                tally(outputs, case, workload.collect(case, raw))
            round_wall = perf_counter() - round_start - (probe.spent - round_spent)
        samples.extend(t * probe.scale for t in times)
        speeds.extend(probe.samples)
        busy += round_wall * probe.scale
        raw_busy += round_wall
        # the median case time is taken over rounds: a round runs every
        # case kind once, so its mean weighs cheap and costly cases alike
        # from round to round, where a per-case median of the af-bundled
        # mix jumps between its cheap and its costly cases
        round_means.append(statistics.fmean(times) * probe.scale)
        # set-ups are spread over the run, each between two reference
        # samples, rather than taken back to back in one phase
        t0 = perf_counter()
        share = min(1.0, (t0 - started - in_setup) / seconds)
        while len(setups) < math.ceil(SETUPS * share):
            before = reference()
            took = set_up(workload)
            setups.append(took * REF_S / statistics.fmean((before, reference())))
            raw_setups.append(took)
        in_setup += perf_counter() - t0
    rss = peak_rss_mib()

    failed, verdicts = check_all(workload, outputs)
    report_outputs(verdicts)
    n = len(samples)
    tail_value, beyond = tail(samples, workload.tail_percentile)
    tail_label = "max" if workload.tail_percentile is None else f"p{workload.tail_percentile:g}"
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups spread over the run: import heckeaf "
                    f"afresh and load the inputs; {statistics.median(raw_setups):.6g} s as measured"),
        "case_s.p50": (statistics.median(round_means), "s",
                       f"median over {len(round_means)} rounds of the mean case time, n={n}"),
        "case_s.tail": (tail_value, "s", f"{tail_label}, n={n}, {beyond} beyond"),
        "cases_per_s": (n / busy, "1/s", f"closed loop, 1 client; {n / raw_busy:.6g} "
                        f"as measured ({n} cases in {raw_busy:.3f} s)"),
        "peak_rss_mib": (rss, "MiB", "peak resident set of the benchmark process"),
    }
    print(f"speed: the reference loop took {statistics.median(speeds):.6g} s (median of "
          f"{len(speeds)}, {min(speeds):.6g} to {max(speeds):.6g}); timings are scaled "
          f"to the speed at which it takes {REF_S} s")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value:.6g} {unit} ({note})")
    print(f"failed_ratio {failed / n:.6g} ({failed}/{n} cases failed the oracle, "
          "raised or exited with an unexpected code)")
    return n, failed, {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}


def traced_run(workload):
    workload.build(fresh_import())
    rounds = workload.rounds()
    cases = [case for _ in range(workload.trace_rounds) for case in next(rounds)]

    outputs = {}
    started = perf_counter()
    for case in cases:
        tally(outputs, case, workload.collect(case, attempt(workload, case)))
    untraced = perf_counter() - started

    merged = None
    stationary = 0
    started = perf_counter()
    for case in cases:
        profile = cProfile.Profile()
        profile.enable()
        raw = attempt(workload, case)
        profile.disable()
        record = workload.collect(case, raw)
        stationary += workload.is_stationary(record)
        tally(outputs, case, record)
        stats = pstats.Stats(profile)
        counts = layers.repeated_calls(stats.stats)
        default = " (default embedding)" if getattr(case, "default", False) else ""
        print(f"trace-case {case.label}{default}: "
              + " ".join(f"{k}={v}" for k, v in counts.items()))
        merged = stats if merged is None else merged.add(stats)
    traced = perf_counter() - started

    failed, verdicts = check_all(workload, outputs)
    report_outputs(verdicts)
    values = layers.layer_metrics(merged.stats, len(cases), stationary)
    values["trace.overhead_ratio"] = traced / untraced
    units = layers.metric_units()
    print(f"traced {len(cases)} cases: {untraced:.3f} s untraced, {traced:.3f} s traced")
    for name, unit in units.items():
        print(f"{name} {values[name]:.6g} {unit}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return 2 * len(cases), failed, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "heckeaf" / "__init__.py").is_file():
        print(f"perfbench: no heckeaf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import heckeaf

    if Path(heckeaf.__file__).resolve().parent != SRC / "heckeaf":
        print(f"perfbench: imported heckeaf from {heckeaf.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.WORKLOADS[args.workload](ROOT, workdir, args.seed)
        if args.trace:
            attempted, failed, metrics = traced_run(workload)
        else:
            attempted, failed, metrics = timed_run(workload, args.seconds)
    except layers.MissingFunction as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
