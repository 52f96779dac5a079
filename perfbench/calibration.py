"""Host-speed calibration.

On a shared host the same work can take twice as long from one minute to
the next (see README.md, "Noise").  The benchmark therefore times a fixed
kernel of its own, never the program's, next to the program's work, and
reports every time at the speed of a reference host:

    adjusted = measured * REFERENCE_S / kernel time measured nearby

The kernel mixes the program's kinds of work, so a slow minute slows both
alike and the ratio stays put.  Raw times are kept in the record too.
"""

from __future__ import annotations

import math
import statistics
import time

# The kernel's median time on the reference host, a 2.1 GHz Xeon vCPU.
REFERENCE_S = 0.008
INTERVAL_S = 0.2   # at most one kernel run per 0.2 s of program work
WINDOW = 5         # an op is adjusted by the median of the last 5 kernel runs


def kernel() -> float:
    """Fixed work in the program's mix, about 8 ms on the reference host.

    Interpreter-bound scalar arithmetic, small numpy calls like those the
    ODE right-hand sides make, and one vectorized pass over a 1.6 MB array.
    """
    import numpy as np
    acc = 0.0
    for i in range(20000):
        acc += math.sqrt(i + acc % 7.0)
    x = np.float64(0.3)
    for _ in range(1500):
        x = np.arctan(np.sin(x)) + 0.1
    return acc + float(x) + float(np.cbrt(np.arange(200000, dtype=float)).sum())


def time_kernel(repeats: int = 1) -> float:
    """Median time of `repeats` kernel runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Calibration:
    """Kernel times taken between the ops of one worker."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = -math.inf
        kernel()  # untimed: imports numpy and warms the caches

    def maybe(self) -> None:
        """Time the kernel once, unless it ran less than INTERVAL_S ago."""
        if time.perf_counter() - self._last < INTERVAL_S:
            return
        self.samples.append(time_kernel())
        self._last = time.perf_counter()

    def recent(self) -> float:
        """Median of the last WINDOW kernel times."""
        return statistics.median(self.samples[-WINDOW:])
