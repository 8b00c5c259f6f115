"""Machine-speed calibration for the end-to-end times.

The sandbox this benchmark was built on shares its cores with other
machines' work, and its speed drifts by 10-30 % over minutes: the same
pass of lamsa calls took 1.21 s in one 25 s run and 1.58 s in another.
The median pass time within a run cannot remove a drift that lasts the
whole run.  So the worker also times a fixed kernel, written here and
independent of lamsa, at the boundaries between client calls (about
twice per second of workload), and scales every end-to-end time by
``REFERENCE_KERNEL_S / median(kernel time)``.  Times are then in
*reference seconds*: what they would have been had the machine run the
kernel at its reference speed.  In trials on that sandbox this about
halved the spread of run medians (interquartile range over median; for
``analysis``, from about 20 % to about 10 %).  The machine's speed also
changes from one second to the next, so the kernel runs often and
briefly rather than seldom and long.  The scaling is imperfect: the
kernel and lamsa do not speed up and slow down by exactly the same
factor, which is why the time bounds in BENCHMARK.json are 0.25.

The kernel mixes what lamsa's hot paths spend their time on: creating and
combining 4-element numpy arrays, interpreter float arithmetic and calls,
and loops over numpy scalars.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median kernel time on the reference machine: a 2-core x86_64 sandbox,
# Python 3.11.7, numpy 2.4.6.
REFERENCE_KERNEL_S = 0.0145
PERIOD_S = 0.5  # seconds of workload per kernel run
MAX_REPS = 10  # kernel runs at one call boundary

clock = time.perf_counter


def _quartic(p: float) -> float:
    return (((-0.04 * p + 0.8) * p - 9.4) * p + 40.0) * p - 25.0


def kernel() -> float:
    acc = 0.0
    # small numpy arrays: allocation and ufunc dispatch, as in a field evaluation
    x = np.array([1.0, 0.5, 3.0, 0.25])
    for i in range(2000):
        y = x * 1.0001 + 0.5 * np.array([x[1], -x[0], x[3], -x[2]])
        acc += float(y[0]) * 1e-9
        x = y / (1.0 + abs(acc) * 1e-12)
    # interpreter float arithmetic and calls: bisection, as in root finding
    for r in range(200):
        a, b = 0.0, 1.5 + 1e-3 * r
        fa = _quartic(a)
        while b - a > 1e-12:
            m = 0.5 * (a + b)
            fm = _quartic(m)
            if fa * fm < 0.0:
                b = m
            else:
                a, fa = m, fm
        acc += a
    # a sign scan over numpy scalars, as in bracketing
    for r in range(3):
        grid = np.linspace(0.0, 10.0 + r, 1024)
        vals = (((-0.04 * grid + 0.8) * grid - 9.4) * grid + 40.0) * grid - 25.0
        for j in range(grid.size - 1):
            if float(vals[j]) * float(vals[j + 1]) < 0.0:
                acc += float(grid[j])
    return acc


class Calibration:
    """Call at each call boundary; runs the kernel once per PERIOD_S elapsed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._owed = PERIOD_S  # seconds of workload not yet matched by a kernel run
        self._last: float | None = None

    def __call__(self) -> None:
        now = clock()
        if self._last is not None:
            self._owed += now - self._last
        reps = min(MAX_REPS, int(self._owed / PERIOD_S))
        self._run(reps)
        self._owed -= reps * PERIOD_S
        self._last = clock()

    def finish(self) -> None:
        """A last sample after the final call, so the run's end is covered too."""
        self._run(max(1, min(MAX_REPS, int((self._owed + clock() - self._last) / PERIOD_S))))

    def _run(self, reps: int) -> None:
        for _ in range(reps):
            t0 = clock()
            kernel()
            self.samples.append(clock() - t0)

    def factor(self) -> float:
        """Multiply a measured time by this to get reference seconds."""
        return REFERENCE_KERNEL_S / statistics.median(self.samples)
