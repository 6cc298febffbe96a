#!/usr/bin/env python3
"""Inputs of the mcf-random workload, made from a seed.

    python3 perfbench/mcf_inputs.py <seed>

prints the rounds of cases as one JSON list: each round holds one
[label, digits, matrix] per (n, cycle length) stratum, in a seeded
order.  The filter uses sympy, so the benchmark runs this in a child
process and the benchmark process reads its memory without sympy loaded.
"""

from __future__ import annotations

import json
import random
import sys

import sympy

from oracle import block_product

# one case per (n, cycle length) in each round
STRATA = tuple((n, length) for n in (2, 3, 4) for length in range(1, 9))
MAX_ENTRY = 5
# a 30 s run uses about 40 rounds at this commit and 72 only if it ran
# 1.8 times faster throughout; a run that uses them all starts over
ROUNDS = 72


def admissible_cycle(rng: random.Random, n: int, length: int):
    """Digit vectors whose repetition is a canonical Jacobi-Perron
    expansion: the last entry is 1..MAX_ENTRY and every other entry is
    smaller than it (for n = 2 the single entry is 1..MAX_ENTRY)."""
    out = []
    for _ in range(length):
        last = rng.randint(1, MAX_ENTRY)
        out.append(tuple(rng.randint(0, last - 1) for _ in range(n - 2)) + (last,))
    return tuple(out)


def is_primitive(matrix) -> bool:
    """Some power of the non-negative matrix is positive (Wielandt:
    power (n-1)^2 + 1 suffices)."""
    n = len(matrix)
    pattern = [[v > 0 for v in row] for row in matrix]
    power = pattern
    for _ in range((n - 1) ** 2):
        power = [[any(power[i][k] and pattern[k][j] for k in range(n)) for j in range(n)]
                 for i in range(n)]
    return all(all(row) for row in power)


def generate(seed: int) -> list:
    """ROUNDS rounds of cases, keeping only primitive block products
    whose characteristic polynomial is irreducible."""
    rng = random.Random(seed)
    rounds = []
    for r in range(ROUNDS):
        round_ = []
        for n, length in STRATA:
            while True:
                digits = admissible_cycle(rng, n, length)
                matrix = block_product(digits, n)
                if is_primitive(matrix) and sympy.Matrix(matrix).charpoly().is_irreducible:
                    break
            round_.append([f"n{n}-L{length}-r{r}", digits, matrix])
        rng.shuffle(round_)
        rounds.append(round_)
    return rounds


if __name__ == "__main__":
    print(json.dumps(generate(int(sys.argv[1]))))
