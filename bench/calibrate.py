"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared, and their speed for
dict-heavy Python drifts by 25% and more over tens of seconds: one oracle
pass took from 22 s to 33 s on the same code.  A fixed pure-Python reference
computation, timed between operations, slows and speeds up with the
workloads: over 90 s of alternation on a 2-core Xeon the workload time per
5 s window ranged over +-25% while its ratio to the reference time stayed
within +-3%.  Timings are therefore reported at the reference speed, the
speed at which `reference_work` takes REFERENCE_S seconds: a raw duration
is divided by the reference time measured around it over REFERENCE_S.

The reference touches nothing of jetform, so a change to jetform cannot
move it; it mixes the program's kinds of work: sparse elimination over
tuple-keyed dicts of ints, and Fraction arithmetic.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.0035
REPEATS = 3
SMOOTH_S = 0.5


def reference_work() -> int:
    rows: dict = {}
    for i in range(300):
        row = {(i % 17, (i * 7) % 13, k): (i * 31 + k * 7) % 97 + 1 for k in range(6)}
        while row:
            lead = max(row)
            piv = rows.get(lead)
            if piv is None:
                rows[lead] = row
                break
            a, b = piv[lead], row.pop(lead)
            for k, v in piv.items():
                if k != lead:
                    s = a * row.get(k, 0) - b * v
                    if s:
                        row[k] = s
                    else:
                        row.pop(k, None)
            for k in row:
                if k not in piv:
                    row[k] *= a
    acc = Fraction(0)
    for i in range(1, 120):
        acc = acc * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(i, i % 11 + 1)
        acc = acc.limit_denominator(1 << 40)
    return len(rows) + acc.numerator % 7


def speed() -> float:
    """Reference time now over REFERENCE_S: above 1 the machine is slow.

    The best of REPEATS timings discards interrupted ones, and the cyclic
    garbage collector is held off so that a collection of the program's
    objects does not land in the reference.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(REPEATS):
            t0 = perf_counter()
            reference_work()
            best = min(best, perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return best / REFERENCE_S


def local_speeds(samples: list[float], stretch_ends: list[int], latencies: list[float]) -> list[float]:
    """The speed to scale each operation by.

    `samples[k]` and `samples[k + 1]` were timed before and after stretch k
    of work, which ends before operation `stretch_ends[k]`.  A stretch's
    speed is the mean of the two.  An operation gets the mean speed of the
    stretches whose midpoints lie within SMOOTH_S seconds of work of its
    own stretch's, weighted by their length: one reference timing is noisy
    alone, and the machine's speed drifts within a run, so the window is
    kept short.
    """
    speed = [(a + b) / 2 for a, b in zip(samples, samples[1:])]
    starts = [0] + stretch_ends[:-1]
    length = [sum(latencies[a:b]) for a, b in zip(starts, stretch_ends)]
    mids, clock = [], 0.0
    for d in length:
        mids.append(clock + d / 2)
        clock += d
    out: list[float] = []
    for k, (a, b) in enumerate(zip(starts, stretch_ends)):
        near = [j for j, m in enumerate(mids) if abs(m - mids[k]) <= SMOOTH_S]
        weight = sum(length[j] for j in near)
        out += [sum(length[j] * speed[j] for j in near) / weight] * (b - a)
    return out
