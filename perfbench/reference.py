"""Fixed reference work that measures how fast the machine runs right now.

On a shared machine the same code runs up to a third slower for seconds at a
time, in CPU time as well as wall time, because other tenants contend for
cores, caches and memory bandwidth.  The benchmark therefore runs this work
between train steps (never inside one), about every CALIBRATE_EVERY_S, and
scales each step's time by NOMINAL_S over the median time of the reference
runs nearest to it: it reports times as on a machine where this work takes
NOMINAL_S.

The work is a dense 1024x128 layer's forward and backward pass on a few
rows: matrix-vector products, a leaky rectifier and outer products.  Timed
in 1 s blocks beside desk_dgp and gp_wide steps, it tracked their step time
with an elasticity of 1.0 and 0.9 and a residual of about 5 % per block.
Adam-like passes over a large vector, a GP query's Gram/Cholesky/solve work,
calls on tiny arrays and plain Python loops each tracked worse, and so did
their mix.

The work does not call the program, but it runs in the program's process
and caches, straight after a train step.  So each reference run is one
untimed pass, which loads the work's own data into the caches, then one
timed pass.  The timed pass no longer depends on what the step left there.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Median time of one timed pass on the machine the benchmark was built on
# (2 vCPU, OpenBLAS with one thread).
NOMINAL_S = 0.004
CALIBRATE_EVERY_S = 0.1
# Reference runs on each side of a step that give its local slowdown.
NEAREST = 3


class ReferenceWork:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.w1 = rng.standard_normal((1024, 128))
        self.w2 = rng.standard_normal((128, 1024))
        self.x = rng.random((8, 1024))

    def __call__(self) -> float:
        """Run the work once; returns a value so it cannot be skipped."""
        acc = 0.0
        for x in self.x:
            h = x @ self.w1
            a = np.where(h > 0.0, h, 0.2 * h)
            y = a @ self.w2
            g = np.sign(y - x) / x.size
            gh = (self.w2 @ g) * np.where(h > 0.0, 1.0, 0.2)
            acc += float(np.outer(a, g)[0, 0] + np.outer(x, gh)[0, 0])
        return acc

    def timed(self, clock=time.perf_counter) -> float:
        """Seconds of one pass run straight after an untimed one."""
        self()
        start = clock()
        self()
        return clock() - start


class Slowdown:
    """Reference-run times over NOMINAL_S, looked up by time."""

    def __init__(self, runs):
        """runs: (start, seconds) of each timed reference pass, in time order."""
        runs = list(runs)
        self.starts = [start for start, _ in runs]
        self.ratios = [seconds / NOMINAL_S for _, seconds in runs]
        if not self.ratios:
            raise ValueError("no reference runs were recorded")

    def overall(self) -> float:
        return statistics.median(self.ratios)

    def between(self, lo: float, hi: float) -> float:
        """Median over the reference runs that started in [lo, hi), else at(lo)."""
        i, j = bisect.bisect_left(self.starts, lo), bisect.bisect_left(self.starts, hi)
        return statistics.median(self.ratios[i:j]) if j > i else self.at(lo)

    def at(self, t: float) -> float:
        """Median over the NEAREST reference runs before t and after it."""
        i = bisect.bisect_left(self.starts, t)
        return statistics.median(self.ratios[max(0, i - NEAREST) : i + NEAREST])
