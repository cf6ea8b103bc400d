"""Seeded inputs for the benchmark's workloads.

Each workload turns a seed into cycles of CLI argument vectors, more than
any run can use. A run always ends on a whole cycle, so every run does the
same mix of work whatever its seed or the speed of the program. No vector
repeats within a run, and every one is valid, so no operation fails on a
correct program. A cycle visits fixed strata (leading coefficient and sign
of Delta, a narrow band of |Delta|, or a window of b) and the seed draws
within each stratum.
"""

from __future__ import annotations

import math
import os
import random
from math import gcd, isqrt

from quadprimes.character import is_fundamental_discriminant

SIEVE_N = 10**11
SCAN_N = 10**6

# (a, sign of Delta): half the inputs have one interval, half have two
SIEVE_STRATA = ((1, -1), (2, 1), (3, -1), (1, 1), (2, -1), (3, 1))
SIEVE_CYCLES = 10

# Nine bands of |Delta|, each 5% wide, their tops equally spaced in log
# scale from 1e5/0.95 to 4e6 (CHI_PERIOD_LIMIT). Bands 2 and 6 are positive,
# the other seven negative. With an odd number of bands the median operation
# lies inside one band. A cycle visits the two largest bands first, so peak
# RSS is set before the package's cached per-Delta tables pile up.
LFUN_LOW, LFUN_HIGH = 10**5, 4 * 10**6
LFUN_BAND_WIDTH = 0.05
LFUN_ORDER = (8, 7, 0, 4, 2, 1, 5, 3, 6)
LFUN_POSITIVE = frozenset({2, 6})
LFUN_CYCLES = 25

# three boxes per cycle: by the third, every seed has reached |b| >= 16,
# where the L-value's partial-sum blocks are near their fixed size, so peak
# RSS after the first cycle depends little on where the seed put the windows
SCAN_BOXES_PER_CYCLE = 3
SCAN_CYCLES = 5
SCAN_B_WIDTH = 11
SCAN_C_WIDTH = 10


def is_admissible(a: int, b: int, c: int) -> bool:
    if a == 0 or gcd(gcd(a, b), c) != 1:
        return False
    if (a + b) % 2 == 0 and c % 2 == 0:
        return False
    delta = b * b - 4 * a * c
    return delta < 0 or isqrt(delta) ** 2 != delta


def sieve_inputs(seed: int) -> list[list[list[str]]]:
    rng = random.Random(f"sieve-large-n/{seed}")
    seen = set()
    cycles = []
    for _ in range(SIEVE_CYCLES):
        cycle = []
        for a, sign in SIEVE_STRATA:
            while True:
                b, c = rng.randint(-20, 20), rng.randint(-200, 200)
                delta = b * b - 4 * a * c
                if (a, b, c) not in seen and is_admissible(a, b, c) and delta * sign > 0:
                    break
            seen.add((a, b, c))
            cycle.append(["analyze", "-a", str(a), "-b", str(b), "-c", str(c),
                          "-N", str(SIEVE_N), "--no-record"])
        cycles.append(cycle)
    return cycles


def lfun_inputs(seed: int) -> list[list[list[str]]]:
    """The largest |Delta| of all cycles is moved to the front. The package
    keeps a smallest-prime-factor table that doubles whenever a larger
    |Delta| arrives; starting with the largest builds it once per run, as a
    single CLI call would, instead of at a point that depends on the seed."""
    rng = random.Random(f"lfun-large-delta/{seed}")
    bands = len(LFUN_ORDER)
    bottom = LFUN_LOW / (1 - LFUN_BAND_WIDTH)
    tops = [bottom * (LFUN_HIGH / bottom) ** (i / (bands - 1)) for i in range(bands)]
    seen = set()
    deltas = []
    for _ in range(LFUN_CYCLES):
        for band in LFUN_ORDER:
            sign = 1 if band in LFUN_POSITIVE else -1
            top = math.floor(tops[band])
            while True:
                delta = sign * rng.randint(math.ceil(top * (1 - LFUN_BAND_WIDTH)), top)
                if delta not in seen and is_fundamental_discriminant(delta):
                    break
            seen.add(delta)
            deltas.append(delta)
    largest = max(range(len(deltas)), key=lambda i: abs(deltas[i]))
    deltas[0], deltas[largest] = deltas[largest], deltas[0]
    vectors = [["lfun", "--delta", str(d)] for d in deltas]
    return [vectors[i:i + bands] for i in range(0, len(vectors), bands)]


def scan_inputs(seed: int, records_dir: str) -> list[list[list[str]]]:
    """Boxes a in [1, 3] by 11 values of b by 10 of c. The c window always
    straddles 0, so every box has Delta > 0, split domains and skip rows;
    the b windows are disjoint slots, nearest 0 first, so no polynomial
    repeats within a run."""
    rng = random.Random(f"scan-box/{seed}")
    offset = rng.randint(-(SCAN_B_WIDTH - 1), 0)
    boxes = []
    for i in range(SCAN_BOXES_PER_CYCLE * SCAN_CYCLES):
        slot = (i + 1) // 2 * (1 if i % 2 else -1)
        b_lo = offset + SCAN_B_WIDTH * slot
        c_lo = rng.randint(-(SCAN_C_WIDTH - 2), -1)
        records = os.path.join(records_dir, f"scan-{i}.jsonl")
        boxes.append(["scan", "--a-range", "1:3",
                      f"--b-range={b_lo}:{b_lo + SCAN_B_WIDTH - 1}",
                      f"--c-range={c_lo}:{c_lo + SCAN_C_WIDTH - 1}",
                      "-N", str(SCAN_N), "--records", records])
    return [boxes[i:i + SCAN_BOXES_PER_CYCLE] for i in range(0, len(boxes), SCAN_BOXES_PER_CYCLE)]


def inputs(workload: str, seed: int, records_dir: str) -> list[list[list[str]]]:
    if workload == "sieve-large-n":
        return sieve_inputs(seed)
    if workload == "lfun-large-delta":
        return lfun_inputs(seed)
    if workload == "scan-box":
        return scan_inputs(seed, records_dir)
    raise ValueError(f"unknown workload {workload!r}")
