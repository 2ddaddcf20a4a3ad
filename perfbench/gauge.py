"""Machine speed gauge: scales measured times to a reference machine speed.

On a shared machine, other processes slow this one by up to 2x for
seconds to minutes at a time, and a whole run can fall in a slow or a
fast stretch.  The gauge times a fixed kernel: small-matrix numpy calls, a
LAPACK eigenvalue call and %.12e formatting, the same kinds of work the
library does, but none of its code.  A time t measured while the kernel
runs at an average speed of 1/g per ms is reported as t * REFERENCE_MS / g,
the time it would take when the kernel takes REFERENCE_MS.

While a run measures, a SIGALRM timer interrupts it every INTERVAL_S to
run the kernel twice and time the second run.  `SpeedGauge.clock` leaves
those interruptions out, so times taken with it do not include the gauge.

Checked on a 2-CPU shared x86_64 machine (perfbench/README.md has the
runs): readings taken during `series` rounds, with their 690 MB heap, and
during `memory` rounds differ by 0.4 % in median; and a fixed cost added
to two library functions moved the scaled op_p50_ms by the ratio that
side-by-side raw timings of the same ops give, within 4 %.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# A fixed unit, near the fastest readings seen on a 2-CPU x86_64 machine.
# Being a constant, it cancels out when two commits are compared.
REFERENCE_MS = 2.2
INTERVAL_S = 0.125

_M = np.arange(16, dtype=complex).reshape(4, 4) / 16.0


def _kernel() -> float:
    acc = 0.0
    rows = []
    for i in range(60):
        g = np.eye(4, dtype=complex)
        g[2:, 2:] = _M[:2, :2]
        x = g @ _M
        acc += float(np.max(np.abs(x - g)))
        acc += float(np.exp(1j * np.angle(np.diag(x))).real.sum())
        rows.append(",".join(f"{v:.12e}" for v in x.real.ravel()))
        if i % 4 == 0:
            acc += float(np.abs(np.linalg.eigvals(x + g)).sum())
    return acc


def read_ms() -> float:
    """Median of three timed kernel runs, in ms."""
    times = []
    for _ in range(3):
        start = time.perf_counter_ns()
        _kernel()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


class SpeedGauge:
    """Kernel readings taken from a timer while sampling, and the clock that excludes them."""

    def __init__(self):
        self.times: list[int] = []  # when each reading started, on `clock`
        self.readings: list[float] = []  # kernel ms
        self._spent_ns = 0

    def clock(self) -> int:
        """perf_counter_ns minus the time spent in the gauge."""
        return time.perf_counter_ns() - self._spent_ns

    def _sample(self, signum=None, frame=None) -> None:
        # The first kernel run refills the caches the interrupted work
        # evicted, and the garbage collector stays off, so the timed second
        # run sees neither the program's working set nor its heap.
        start = time.perf_counter_ns()
        enabled = gc.isenabled()
        gc.disable()
        _kernel()
        begin = time.perf_counter_ns()
        _kernel()
        end = time.perf_counter_ns()
        if enabled:
            gc.enable()
        took = end - start
        self.times.append(start - self._spent_ns)
        self.readings.append((end - begin) / 1e6)
        self._spent_ns += took

    @contextmanager
    def sampling(self):
        """Read the gauge at the start, every INTERVAL_S, and at the end."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self._sample()

    def scale(self, start: int, end: int) -> float:
        """Factor for work timed on `clock` from start to end.

        REFERENCE_MS times the mean of 1/g over the readings taken in that
        interval, or over the readings just before and after it when it held
        none.  The readings are evenly spaced in time, so that mean is the
        kernel's average speed over the interval.  Under a load that switches
        the machine between a fast and a slow speed, as a busy neighbour on
        a shared core does, a median would snap to one of the two.
        """
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi == lo:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return REFERENCE_MS * statistics.fmean(1.0 / g for g in self.readings[lo:hi])
