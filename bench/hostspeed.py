"""Host-speed calibration for the end-to-end times.

On a shared host the speed of one core can change by a factor of two within
seconds and drift by tens of percent over minutes.  A run therefore times a
fixed slice of interpreter work, which shares no code with sumprod, before
an item whenever EVERY_S seconds have passed since the last slice, at the
end of each pass and around each set-up probe.  Each timed execution is
scaled by REFERENCE_MS over the mean of the two slices that bracket it: the
last one before it started and the first one after it ended.  It then reads
as its time on a host where the slice takes REFERENCE_MS.  A bracket is at
most EVERY_S plus one item wide, so it follows the host's speed over
seconds, which one factor for the whole run cannot.  The raw times and the
run's overall factor are kept in the result file.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter, perf_counter_ns

REFERENCE_MS = 10.0
EVERY_S = 0.2


def work() -> int:
    """Fraction arithmetic, set and dict building, sorting and big-int shifts:
    the kinds of work sumprod spends its time on, in a cache-resident part
    and a part with about a megabyte of live data."""
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i % 13 + 1, i)
    values = {(i * 7919) % 10007 for i in range(6000)}
    buckets: dict[int, int] = {}
    for v in values:
        buckets[v % 97] = buckets.get(v % 97, 0) + v
    bits = 1
    for e in range(1, 300):
        bits |= bits << (e % 61)
    spread = sorted({(i * 2654435761) % 1000003 for i in range(20000)})
    return len(sorted(values)) + len(buckets) + bits.bit_count() + acc.numerator % 7 + len(spread)


class HostSpeed:
    """Samples the calibration slice at most every EVERY_S seconds, unless forced."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []
        self.ends: list[float] = []  # perf_counter() when each slice ended
        self._last = float("-inf")

    def sample(self, force: bool = False) -> None:
        if force or perf_counter() - self._last >= EVERY_S:
            start = perf_counter_ns()
            work()
            self.samples_ms.append((perf_counter_ns() - start) / 1e6)
            self._last = perf_counter()
            self.ends.append(self._last)

    def factor(self) -> float:
        """The whole run's factor: reference speed over the median slice."""
        return REFERENCE_MS / statistics.median(self.samples_ms)

    def factor_between(self, start: float, end: float) -> float:
        """Multiply the time of an execution that ran from `start` to `end`
        (perf_counter() seconds) by this to express it at reference speed."""
        i = bisect_right(self.ends, start)
        j = bisect_left(self.ends, end)
        before = self.samples_ms[max(i - 1, 0)]
        after = self.samples_ms[min(j, len(self.samples_ms) - 1)]
        return 2 * REFERENCE_MS / (before + after)
