"""Host-speed calibration for the benchmark's timings.

On a shared host the interpreter's speed swings by half or more within
seconds, for reasons outside this process (measured: a fixed Fraction
loop ran between 10 and 23 times per second over one minute).  While the
workload runs, a timer signal every ``INTERVAL`` seconds times a small
fixed job (``job``) in the same thread.  Each input's wall time, less the
time those ticks took inside it, is divided by the mean job time around
it and multiplied by ``REFERENCE_MS``, the job's fastest duration on the
development VM.  The job is pure-Python Fraction elimination without the
library, like the library's hot loop, so a change to the library moves
the reported figures while a change in host speed largely cancels.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REFERENCE_MS = 0.34  # fastest job() on a 2-vCPU x86-64 VM, Python 3.11
INTERVAL = 0.02  # seconds between ticks: 2-3% of the run goes to ticks
WINDOW = 0.1  # ticks this close to an input's interval calibrate it

_MATRIX = [[Fraction((3 * i + 7 * j) % 11 - 5, 1 + (i * j) % 7) for j in range(5)]
           for i in range(5)]


def job():
    """Gauss-Jordan elimination of a fixed nonsingular 5 x 5 rational matrix."""
    a = [row[:] for row in _MATRIX]
    n = len(a)
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return a


def timed_job() -> float:
    """Seconds one ``job`` takes, with the garbage collector off, so that
    collections of the library's objects are not charged to the job."""
    collecting = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    job()
    seconds = perf_counter() - t0
    if collecting:
        gc.enable()
    return seconds


class Sampler:
    """Times ``job`` from a SIGALRM handler while active (a context manager)."""

    def __init__(self):
        self.starts: list = []
        self.costs: list = []
        self._previous = None
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a tick is dropped
            return
        self._busy = True
        self.starts.append(perf_counter())
        self.costs.append(timed_job())
        self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The span [t0, t1] less its ticks, in reference seconds."""
        lo = bisect_left(self.starts, t0)
        hi = bisect_right(self.starts, t1)
        busy = sum(self.costs[lo:hi])
        near = self.costs[bisect_left(self.starts, t0 - WINDOW):
                          bisect_right(self.starts, t1 + WINDOW)]
        if not near:
            raise RuntimeError("no calibration tick near an input; is SIGALRM blocked?")
        return to_reference(t1 - t0 - busy, sum(near) / len(near))


def to_reference(seconds: float, job_seconds: float) -> float:
    """A wall time measured alongside ``job_seconds``, in reference seconds."""
    return seconds / job_seconds * REFERENCE_MS / 1000.0
