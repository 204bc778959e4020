"""Calibrated timing.

The speed of the shared machines this benchmark runs on drifts by tens of
percent within a second, and CPU time drifts with wall time, so raw times of
the same work are not comparable from one run to the next. A fixed reference
unit, pure-Python rational arithmetic that shares no code with hyperops, is
timed on a 10 ms wall-clock timer while work runs, and once before and after
each job. A stretch of work is then reported in the seconds it would take on
a machine where one reference unit takes NOMINAL_S:

    calibrated = (raw - time spent in the reference) * NOMINAL_S / mean(unit times)

where the mean is over the unit timings taken during the stretch and at its
two ends. Time spent timing the reference is never counted as work.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.0004
INTERVAL_S = 0.01
ENDPOINT_UNITS = 4


def reference_unit() -> Fraction:
    acc = Fraction(0)
    for k in range(1, 50):
        a, b = Fraction(k, 7), Fraction(3, k + 1)
        acc = acc + a * b - Fraction(1, k)
    return acc


class Calibrator:
    def __init__(self):
        self.samples = []  # seconds per reference unit
        self.spent = 0.0   # seconds spent timing the reference
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a tick that lands inside another timing is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_unit()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def sample(self) -> None:
        """Time a few units now, between jobs."""
        self._busy = True
        t0 = time.perf_counter()
        for _ in range(ENDPOINT_UNITS):
            reference_unit()
        t1 = time.perf_counter()
        self.samples.append((t1 - t0) / ENDPOINT_UNITS)
        self.spent += time.perf_counter() - t0
        self._busy = False

    @contextlib.contextmanager
    def ticking(self, on: bool = True):
        """Sample on the timer while the block runs (when `on`)."""
        if not on:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> tuple:
        """Call right after sample(); the window then starts with that sample."""
        return len(self.samples) - 1, self.spent

    def factor(self, since: tuple) -> float:
        return NOMINAL_S / statistics.fmean(self.samples[since[0]:])
