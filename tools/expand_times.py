#!/usr/bin/env python3
"""Jacobi-Perron expansions of a fixture's coefficient module, timed.

For each real embedding of the fixture (or only embedding i, with
`@i`), the script expands the coefficient module's basis ratios as the
pipeline does before any unit or form search (`units._attractor_data`,
whose cycle, when it finds one, gives the unit and the non-negative form
in closed form), under a budget of N states, and prints the steps run, whether a state repeated
(with the state it repeats and the period length), the precision in bits
the basis enclosures ended at, the number of states whose row
enclosures were recomputed from the basis bounds (not carried from the
step that made them), and the wall time.  An unknown fixture or an
embedding index out of range is a usage error (exit code 2).

Usage: python3 tools/expand_times.py <fixture[@i]> --steps N
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heckeaf import mcf  # noqa: E402
from heckeaf.errors import HeckeafError  # noqa: E402
from heckeaf.exactnum.units import _attractor_data  # noqa: E402
from heckeaf.hecke import load_fixture, load_newform, module_of_eigenform  # noqa: E402


def load(name: str):
    """A bundled fixture by name, or a fixture file by path."""
    path = Path(name)
    return load_newform(path.read_text()) if path.exists() else load_fixture(name)


def expand(module, root, steps: int):
    """One _attractor_data run: (digits stepped, repeated state or None,
    period length, final precision in bits, states whose row enclosures
    were recomputed from the basis bounds, seconds).  The engine and its
    enclosure are wrapped for the run to read what they did."""
    seen, bits, recomputed = [], [0], [0]
    engine = mcf._expand_states
    sharpen = mcf._BasisEnclosure._sharpen
    enclosed = mcf._BasisEnclosure.ratio_floors

    def recorded(*args):
        seen.append(engine(*args))
        return seen[-1]

    def sharpened(self, prec):
        bits[0] = prec
        sharpen(self, prec)

    def recomputing(self, *args):
        recomputed[0] += 1
        return enclosed(self, *args)

    with patch.object(mcf, "_expand_states", recorded), \
            patch.object(mcf._BasisEnclosure, "_sharpen", sharpened), \
            patch.object(mcf._BasisEnclosure, "ratio_floors", recomputing):
        started = perf_counter()
        _attractor_data(module, root, max_steps=steps)
        elapsed = perf_counter() - started
    if not seen:  # rank 1: nothing to expand
        return 0, None, 0, 0, 0, elapsed
    digits, _, start, _ = seen[0]
    period = 0 if start is None else len(digits) - start
    return len(digits), start, period, bits[0], recomputed[0], elapsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("fixture", help="bundled fixture name or path, with an optional @i")
    parser.add_argument("--steps", type=int, required=True,
                        help="states checked for a repeat (the expansion's budget)")
    args = parser.parse_args(argv)
    if args.steps < 1:
        parser.error("--steps must be positive")
    name, _, index = args.fixture.partition("@")
    try:
        f = load(name)
    except (OSError, HeckeafError) as exc:
        parser.error(f"cannot load {name}: {exc}")
    roots = f.field.real_roots
    if index and index not in [str(i) for i in range(len(roots))]:
        parser.error(f"embedding {index!r} is not one of 0..{len(roots) - 1}")
    module = module_of_eigenform(f)
    indices = [int(index)] if index else range(len(roots))
    print(f"{'embedding':>9} {'steps':>7} {'repeat':>16} {'bits':>6} {'recomputed':>10} "
          f"{'seconds':>9}   (budget {args.steps} states)")
    for i in indices:
        stepped, start, period, bits, recomputed, elapsed = expand(module, roots[i], args.steps)
        repeat = "no" if start is None else f"state {start}, period {period}"
        print(f"{i:>9} {stepped:>7} {repeat:>16} {bits:>6} {recomputed:>10} {elapsed:>9.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
