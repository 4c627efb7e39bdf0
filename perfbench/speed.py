"""The machine's speed, sampled while the benchmark runs, and times
expressed in reference seconds.

The machine the benchmark was sized on changes speed on its own: within
a minute it moves between a fast state and one where the same CPU-bound
work takes 1.5 to 2.3 times as long, sometimes for a fraction of a
second, sometimes for minutes, with process CPU time following wall time
(see README.md).  Raw times of two runs of the same code then differ by
more than any bound.

So the benchmark times a fixed reference kernel (small numpy products,
no allocation the garbage collector tracks, nothing from ``ecsforge``) from
a timer signal every ``INTERVAL_S`` seconds, in its own process, between
the bytecodes of whatever runs.  A span of time [a, b] is then reported
as the work done in it, in reference seconds: its raw length minus the
kernels run inside it, times NOMINAL_KERNEL_S times the mean of
1/(kernel time) over the samples inside it and the nearest one on each
side.  A reference second is thus the time in which the kernel runs
1/NOMINAL_KERNEL_S times.  A change to the program moves these times as
it moves raw ones; a change of the machine's speed moves the kernel too,
and cancels.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# the unit: a reference second is 1000 kernel runs
NOMINAL_KERNEL_S = 1.0e-3

_MATRIX = np.random.default_rng(0).standard_normal((6, 6)) * 0.3
_START = np.ones(6)


def kernel() -> float:
    """Small numpy matrix-vector products and scalar Python arithmetic, the
    mix of the program's float routes; about 1 ms on the reference
    machine.  The vector stays bounded, so no floating-point error state
    the program may have set is ever hit."""
    x = _START
    total = 0.0
    for _ in range(150):
        x = _MATRIX @ x
        x = x / (1.0 + np.abs(x).max())
        total += float(x[0])
    return total


class SpeedSampler:
    """Runs ``kernel`` from SIGALRM every INTERVAL_S seconds and keeps
    (start, end) of each run, in ``time.perf_counter`` seconds."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        # restart system calls the signal lands in rather than fail them
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, a: float, b: float) -> tuple[float, float]:
        """(raw seconds, reference seconds) of the work done in [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_right(self.starts, b)
        if not self.starts:
            raise RuntimeError("no speed sample was taken")
        raw = (b - a) - sum(self.ends[i] - self.starts[i] for i in range(lo, hi))
        window = range(max(lo - 1, 0), min(hi + 1, len(self.starts)))
        speed = sum(1.0 / (self.ends[i] - self.starts[i]) for i in window) / len(window)
        return raw, raw * NOMINAL_KERNEL_S * speed
