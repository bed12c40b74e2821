"""Host-speed correction for timings taken on a shared machine.

On a small shared container the same op can take 30-50 % longer for
seconds or minutes at a time, because neighbours contend for the
physical core and its caches; no steal time is reported, and CPU time
is inflated as much as wall time. :class:`SpeedClock` tracks that by
timing a fixed pure-Python calibration kernel -- a tiny event loop
over a heap of slotted objects plus an integer loop, the instruction
mix of the simulator -- between ops, and scales each op's seconds by
``CAL_REFERENCE_S / calibration``. On a quiet host the factor is about
one, so corrected seconds stay host seconds; in a slow phase the
factor cancels the slowdown common to the op and the kernel.

The kernel touches no simulator code, so a change to ``src/`` cannot
move it.
"""

from __future__ import annotations

import heapq
import itertools
import time

#: Calibration time (seconds) on an idle 2-vCPU x86-64 container with
#: CPython 3.11; the unit every corrected timing is expressed in.
CAL_REFERENCE_S = 0.0065

#: Kernel repetitions per calibration; the fastest one is kept.
_CAL_REPEATS = 3


class _Job:
    __slots__ = ("left", "done")

    def __init__(self, left: int) -> None:
        self.left = left
        self.done = 0

    def tick(self, queue: list, now: int, seq) -> None:
        self.left -= 1
        if self.left > 0:
            heapq.heappush(queue, (now + (self.left * 7919) % 97 + 1,
                                   next(seq), self))
        else:
            self.done += 1


def _kernel() -> int:
    seq = itertools.count()
    queue: list = []
    table = {}
    for i in range(500):
        job = table[i] = _Job(10)
        heapq.heappush(queue, (i % 50, next(seq), job))
    events = 0
    while queue:
        now, _, job = heapq.heappop(queue)
        job.tick(queue, now, seq)
        events += 1
    total = 0
    for i in range(30_000):
        total += i * i % 7
    return events + total


def calibrate() -> float:
    """Seconds the calibration kernel takes now (best of a few)."""
    best = float("inf")
    for _ in range(_CAL_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class SpeedClock:
    """Corrects op timings by the calibration measured around them."""

    def __init__(self) -> None:
        self._last = calibrate()

    def correct(self, seconds: float) -> float:
        """Scale ``seconds`` (just measured) to reference host speed,
        using the mean of the calibrations before and after it."""
        after = calibrate()
        speed = (self._last + after) / 2
        self._last = after
        return seconds * CAL_REFERENCE_S / speed
