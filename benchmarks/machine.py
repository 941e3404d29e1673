"""The machine's speed, from a fixed reference kernel timed between ops.

On a shared host the same code runs at different speeds from one minute to
the next: other tenants' load on the same cores slows every instruction, by
up to about half, for stretches of seconds to minutes. A wall-clock figure
then mostly reports the host. The benchmark therefore runs a small fixed
kernel of plain Python between the program's ops, takes the kernel's typical
time over the run, and reports op times scaled to a machine on which the
kernel takes REFERENCE_MS: an op that takes twice the kernel's time reads as
2 * REFERENCE_MS, whatever the host was doing.

The kernel is stdlib only and does not touch coordsem, so no change to the
program moves it. It does the kind of work the program does (Fraction
arithmetic, tuples, dicts, generators, small calls), so that contention slows
both alike. It runs with the garbage collector off: its objects hold no
cycles, and a collection would charge it for what the program keeps alive.
"""

from __future__ import annotations

import gc
import math
import time
from fractions import Fraction

# What the kernel's typical time is scaled to. A round figure near its
# typical time on the reference machine, so scaled ops read close to raw ones.
REFERENCE_MS = 2.0
# Share of the op time spent on kernel samples, interleaved with the ops.
SAMPLE_SHARE = 0.15
# Share of the slowest samples (and of an item's slowest units) left out of
# a typical time: single outliers where the process was descheduled.
TRIM = 0.1


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first, *rest)


def _kernel() -> Fraction:
    denominator = 12
    table = {}
    best = Fraction(0)
    for combo in _compositions(denominator, 3):
        masses = tuple(Fraction(k, denominator) for k in combo)
        mass = sum(masses[1:], Fraction(0))
        key = (combo[0] % 3, combo[1] % 2)
        table[key] = table.get(key, Fraction(0)) + mass
        if masses[0] and masses[0] * mass > best:
            best = masses[0] * mass
    return best + sum(table.values(), Fraction(0))


def sample() -> float:
    """Seconds one run of the kernel takes."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def typical(values) -> float:
    """Mean of the values without the slowest TRIM share. A mean, not a
    minimum or median: an op that lasts seconds averages over the host's
    fast and slow stretches, and so does a mean of short kernel samples."""
    ordered = sorted(values)
    kept = ordered[:max(1, len(ordered) - math.floor(TRIM * len(ordered)))]
    return math.fsum(kept) / len(kept)


class Pacer:
    """Runs kernel samples between ops, SAMPLE_SHARE of the op time in all."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed = 0.0

    def after_op(self, op_seconds: float) -> None:
        self._owed += SAMPLE_SHARE * op_seconds
        while self._owed > 0:
            s = sample()
            self.samples.append(s)
            self._owed -= s

    def scale(self) -> float:
        """Factor that turns a time on this run's machine into one on a
        machine where the kernel takes REFERENCE_MS."""
        return REFERENCE_MS / 1e3 / typical(self.samples)
