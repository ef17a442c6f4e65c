"""Host-speed calibration: a fixed pure-Python kernel timed between ops.

The benchmark runs on a shared host whose speed drifts: the same pass of
the same code took from 1.06 s to 2.23 s within one run, and the drift
persists for minutes, so it moves whole runs.  It acts on all
interpreted code alike.  Timing a fixed kernel that belongs to the
benchmark, not to the program, next to every op measures the host's
speed at that moment; dividing the op's time by it removes the drift and
keeps every change the program makes to its own time.

Times normalised this way are stated in milliseconds of a host on which
one kernel run takes ``REFERENCE_MS``: the kernel's median on a 2-core
Xeon (Python 3.11.7) in a quiet stretch.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

REFERENCE_MS = 0.5  # kernel time that normalised times are expressed against
WINDOW = 3  # kernel samples on each side of an op that set its host speed
BRACKET = 3  # kernel runs before and after a bracketed call


def kernel() -> int:
    """Fixed work in the program's mix: small-int bit operations, tuple and
    dict traffic, method calls, and Fraction arithmetic with gcds."""
    bits, acc = 0b1011_0110_1101, 0
    table: dict[int, tuple] = {}
    for i in range(700):
        low = bits & -bits
        bits = ((bits ^ (low << 3)) | (1 << (i % 29))) & 0x3FFFFFFF
        acc += bits.bit_count() + (bits >> (i % 7) & 15)
        table[i & 127] = (i, bits, acc)
    values = sorted(table.values(), key=lambda t: t[1])
    f = Fraction(1)
    for i in range(1, 60):
        f = f * Fraction(i + 2, i + 1) - Fraction(values[i % len(values)][0], 7 * i)
    return acc + f.numerator % 97


def sample() -> float:
    """Milliseconds of one kernel run."""
    start = perf_counter()
    kernel()
    return (perf_counter() - start) * 1e3


def local_speeds(samples: list[float]) -> list[float]:
    """Host slowdown for each gap between consecutive samples.

    ``samples`` were taken before each of n ops and after the last one;
    entry i (of n) is the median of the samples in a window of ``WINDOW``
    on each side of op i, divided by ``REFERENCE_MS``.
    """
    n = len(samples) - 1
    return [
        statistics.median(samples[max(0, i + 1 - WINDOW): i + 1 + WINDOW]) / REFERENCE_MS
        for i in range(n)
    ]


def bracket(fn):
    """Run ``fn`` between two groups of ``BRACKET`` kernel runs; returns
    (result, seconds, slowdown) where slowdown is the median kernel time
    over ``REFERENCE_MS``."""
    before = [sample() for _ in range(BRACKET)]
    start = perf_counter()
    result = fn()
    seconds = perf_counter() - start
    after = [sample() for _ in range(BRACKET)]
    return result, seconds, statistics.median(before + after) / REFERENCE_MS
