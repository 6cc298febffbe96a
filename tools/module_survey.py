#!/usr/bin/env python3
"""Outcomes of `hecke.af_of_module` on drawn modules, by module family.

  --degree 2 --count K           the first K non-square d >= 2, with the
                                 modules Z[sqrt d], 2Z + Z(1 + sqrt d) and
                                 3Z + Z sqrt d of Q(sqrt d)
  --degree 3 --seed S --count K  K cubics x^3 + a x^2 + b x + c drawn with
                                 random.Random(S), randint(-8, 8) for a, b
                                 and c in that order, redrawn until the
                                 polynomial is irreducible with three real
                                 roots (duplicates allowed), with the
                                 modules Z[a], Z + Za + 2Za^2,
                                 2Z + Za + Za^2 and Z + 3Za + Za^2 for a
                                 root a

Every module runs at every real embedding.  An embedding "cycles" when
the module's own Jacobi-Perron expansion (`units._attractor_data`, run
untimed before the pipeline) finds a period within its budget; the
pipeline then reads the unit and the non-negative form off that cycle
in closed form, and runs the unit and form searches only elsewhere.  For each
family the script prints the runs, the embeddings that cycle, the runs
certified among cycling and among other embeddings, the typed failures
by class and the slowest run; the last line is the total pipeline time.

Usage: python3 tools/module_survey.py --degree 3 --seed 11 --count 60
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from itertools import count as naturals
from math import isqrt
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from heckeaf.errors import HeckeafError, NotSquarefree, ReduciblePolynomial  # noqa: E402
from heckeaf.exactnum import IntPolynomial, make_field, module_from_generators  # noqa: E402
from heckeaf.exactnum.units import _attractor_data  # noqa: E402
from heckeaf.hecke import af_of_module  # noqa: E402

# generator coordinates in the power basis 1, a (, a^2), by family
QUADRATIC_FAMILIES = {
    "Z[sqrt d]": ((1, 0), (0, 1)),
    "2Z+Z(1+sqrt d)": ((2, 0), (1, 1)),
    "3Z+Z sqrt d": ((3, 0), (0, 1)),
}
CUBIC_FAMILIES = {
    "Z[a]": ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
    "Z+Za+2Za^2": ((1, 0, 0), (0, 1, 0), (0, 0, 2)),
    "2Z+Za+Za^2": ((2, 0, 0), (0, 1, 0), (0, 0, 1)),
    "Z+3Za+Za^2": ((1, 0, 0), (0, 3, 0), (0, 0, 1)),
}


def quadratic_fields(count: int):
    """(label, field) for the first count non-square d >= 2."""
    out = []
    for d in naturals(2):
        if len(out) == count:
            return out
        if isqrt(d) ** 2 != d:
            out.append((f"d={d}", make_field(IntPolynomial((-d, 0, 1)))))


def cubic_fields(seed: int, count: int):
    """(label, field) for count totally real cubics drawn from seed."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a, b, c = rng.randint(-8, 8), rng.randint(-8, 8), rng.randint(-8, 8)
        try:
            field = make_field(IntPolynomial((c, b, a, 1)))
        except (ReduciblePolynomial, NotSquarefree):
            continue
        if len(field.real_roots) == 3:
            out.append((f"x^3{a:+}x^2{b:+}x{c:+}", field))
    return out


def survey(fields, families):
    """(family, run label, cycles, outcome, seconds) for every module of
    every family at every real embedding; the outcome is "certified" or
    the name of the typed failure."""
    for name, gens in families.items():
        for label, field in fields:
            module = module_from_generators(field, [field.element(g) for g in gens])
            for index, root in enumerate(field.real_roots):
                cycles = _attractor_data(module, root) is not None
                started = perf_counter()
                try:
                    af_of_module(module, index)
                    outcome = "certified"
                except HeckeafError as exc:
                    outcome = type(exc).__name__
                yield name, f"{label}@{index}", cycles, outcome, perf_counter() - started


def table(results, families) -> str:
    """The outcome table of survey's results: one row per family, then
    the total pipeline time."""
    lines = [f"{'family':<16} {'runs':>5} {'cycling':>7} {'certified cycling':>17} "
             f"{'certified other':>15}  failures; slowest run"]
    results = list(results)
    for name in families:
        mine = [r for r in results if r[0] == name]
        cycling = sum(r[2] for r in mine)
        cert_c = sum(r[2] and r[3] == "certified" for r in mine)
        cert_o = sum(not r[2] and r[3] == "certified" for r in mine)
        failures = Counter(r[3] for r in mine if r[3] != "certified")
        failed = ", ".join(f"{cls} {n}" for cls, n in sorted(failures.items())) or "none"
        seconds, where = max((r[4], r[1]) for r in mine)
        lines.append(f"{name:<16} {len(mine):>5} {cycling:>7} {f'{cert_c}/{cycling}':>17} "
                     f"{f'{cert_o}/{len(mine) - cycling}':>15}  {failed}; {seconds:.3f} s at {where}")
    lines.append(f"total pipeline time {sum(r[4] for r in results):.2f} s")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--degree", type=int, choices=(2, 3), required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0, help="the cubics' seed (degree 3)")
    args = parser.parse_args(argv)
    if args.count < 1:
        parser.error("--count must be positive")
    if args.degree == 2:
        fields, families = quadratic_fields(args.count), QUADRATIC_FAMILIES
    else:
        fields, families = cubic_fields(args.seed, args.count), CUBIC_FAMILIES
    print(table(survey(fields, families), families))
    return 0


if __name__ == "__main__":
    sys.exit(main())
