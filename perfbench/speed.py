"""Reference-speed time: wall time rescaled to the speed of an uncontended core.

Other tenants of a shared host slow this process by up to 60 % for seconds at
a time: on a shared 2-vCPU VM the per-second medians of a fixed loop ranged from
3.4 to 5.1 ms, and 15-s wall-clock throughput of one workload on one seed
varied by 28 % (interquartile range 12 %).  So the benchmark runs a fixed
pure-Python probe, which calls no nullgrid code, every PROBE_INTERVAL_S
between ops, and rescales each measured interval by PROBE_REF_S over the
median probe duration within WINDOW_S of it.  The same 15-s windows then agree
to 1-3 % in throughput and latency quantiles.  A change to nullgrid moves
reference-speed times as it moves wall times; a busy host does not.  The
probe tracks compute-heavy code more closely than argparse-heavy code, whose
slowdown under contention is smaller than the probe's.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

PROBE_INTERVAL_S = 0.02
WINDOW_S = 0.5
PROBE_REF_S = 0.0004  # the probe's duration on an uncontended core (Python 3.11, 2.1 GHz vCPU)


def probe() -> int:
    """Fixed work of the kinds nullgrid's kernels do: dict updates and
    small-integer arithmetic."""
    d = {}
    for i in range(2000):
        k = i * 7919 % 1013
        d[k] = d.get(k, 0) + i * i % 97
    return len(d)


class SpeedLog:
    """Probe durations by start time."""

    def __init__(self):
        self.times = []
        self.durations = []
        self._cache = {}

    def probe(self, count: int = 1):
        for _ in range(count):
            t0 = perf_counter()
            probe()
            t1 = perf_counter()
            self.times.append(t0)
            self.durations.append(t1 - t0)

    def maybe_probe(self, now: float) -> bool:
        """Probe if PROBE_INTERVAL_S has passed since the last probe; returns
        whether it probed."""
        if self.times and now - self.times[-1] < PROBE_INTERVAL_S:
            return False
        self.probe()
        return True

    def scale(self, start: float, end: float) -> float:
        """Factor turning wall seconds in [start, end] into reference seconds."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # no probe near: take the nearest one
            lo, hi = (hi - 1, hi) if hi else (0, 1)
        factor = self._cache.get((lo, hi))
        if factor is None:
            factor = self._cache[lo, hi] = PROBE_REF_S / statistics.median(self.durations[lo:hi])
        return factor
