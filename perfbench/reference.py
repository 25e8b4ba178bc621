"""Reference timing that takes the machine's changing speed out of a time.

A shared virtual machine with 2 Intel Xeon vCPUs changed speed by up to a
factor of two within a minute, with no change in the work done, so raw
times of identical runs spread by 10-35 %.  A fixed loop, timed every
50 ms between the operations being measured, slows down and speeds up with
them.  A scaled time is a measured time multiplied by NOMINAL_S over the
median loop time within half a second of it: the time the operation would
have taken with the loop at its nominal speed.  Raw times stay in the
detail line.

The loop builds and serialises small containers, as the workloads do.  Run
side by side with workload operations for two minutes, it tracked them
better than a loop of integer arithmetic: over 20-sample windows, the
coefficient of variation of an operation's time over the loop's time was
0.064-0.070 with this loop and 0.081-0.089 with the arithmetic one.
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

NOMINAL_S = 0.0017  # one loop at that machine's typical speed
INTERVAL_S = 0.05
WINDOW_S = 0.5


def _loop() -> int:
    """Build small lists, tuples and strings and serialise some of them, as
    the workloads do."""
    table = {}
    for i in range(3000):
        table[i] = [i, (i, str(i))]
    return len(json.dumps(list(table.values())[:300]))


class Timeline:
    """Loop timings taken during a run, and the scale they give."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        _loop()
        self.times.append(t0)
        self.samples.append(perf_counter() - t0)

    def due(self, now: float) -> bool:
        return not self.times or now - self.times[-1] >= INTERVAL_S

    def scale(self, t0: float, t1: float) -> float:
        """The factor for a time measured from t0 to t1."""
        lo = bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect_right(self.times, t1 + WINDOW_S)
        window = self.samples[lo:hi] or self.samples[max(0, lo - 1):lo + 1]
        return NOMINAL_S / statistics.median(window)

    def scaled(self, starts: list[float], durations: list[float]) -> list[float]:
        """Scale a run's time-ordered operations, one window per sample."""
        factors = [self.scale(t, t) for t in self.times]
        return [d * factors[max(0, bisect_right(self.times, t) - 1)]
                for t, d in zip(starts, durations)]
