"""Machine-speed reference for timings on a shared host.

On a shared virtual machine the speed of a vCPU drifts by tens of percent,
in phases of 10-30 s, as neighbours come and go; a median over a 20 s run
does not average that out.  A fixed calibration kernel, timed just before
and just after each measured interval, slows down with the host in the same
way, so a measured interval is reported scaled to the speed at which the
kernel takes NOMINAL_S:

    normalized = measured * NOMINAL_S / mean(kernel time before, kernel time after)

where each kernel time is the median of REPEATS runs, because one run
scatters by about 15 %.  The kernel is independent of spherecoef, so a
change to the package moves the normalized time exactly as it moves the
measured one.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

NOMINAL_S = 0.04  # about the median kernel time on the 2-vCPU host the bounds were set on
INTERVAL_S = 1.0  # longest gap between two samples inside a timed loop
REPEATS = 3  # kernel runs per sample


class SpeedReference:
    def __init__(self):
        self._t = np.random.default_rng(0).uniform(-1.0, 1.0, 1 << 20)
        self.starts, self.ends, self.kernel_s = [], [], []

    def _kernel(self):
        """Interpreter loop plus a three-term recurrence on 8 MiB of doubles,
        the two kinds of work the package does."""
        s = 0
        for i in range(150_000):
            s += i * i % 7
        prev, cur = np.ones_like(self._t), self._t.copy()
        for _ in range(6):
            prev, cur = cur, 2.0 * self._t * cur - prev
        return s + float(cur[0])

    def sample(self):
        runs = []
        start = time.perf_counter()
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._kernel()
            runs.append(time.perf_counter() - t0)
        self.starts.append(start)
        self.ends.append(time.perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def due(self):
        return not self.ends or time.perf_counter() - self.ends[-1] >= INTERVAL_S

    def normalize(self, interval):
        """Measured seconds of (start, end), scaled by the bracketing samples."""
        start, end = interval
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.starts, end)
        near = [self.kernel_s[k] for k in (before, after) if 0 <= k < len(self.kernel_s)]
        if not near:
            raise RuntimeError("no speed sample around the measured interval")
        return (end - start) * NOMINAL_S * len(near) / sum(near)

    def factor(self):
        """Median normalized / measured over the run."""
        return NOMINAL_S / statistics.median(self.kernel_s)
