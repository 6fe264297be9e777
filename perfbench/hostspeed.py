"""Host-speed calibration for the host-time metrics.

The host the benchmark was tuned on (a 2-vCPU Xeon VM at 2.1 GHz
sharing its physical cores with other tenants) changes speed by up to
±35 % over minutes, with no steal time the guest can see, so a
host-time metric measured at one moment says as much about the
neighbours as about the program. The benchmark therefore runs a fixed
pure-Python reference kernel next to every timed interval and scales
the interval to a *nominal* host, one on which the kernel takes
:data:`NOMINAL_S`. On the tuning host the scaled figures stayed within
a few percent across speed shifts that moved the raw ones by 35 %.

The kernel uses only the interpreter and builtins, never the program,
so a change to the program cannot change the reference.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["NOMINAL_S", "slowdown"]

#: the reference kernel's time on the tuning host at its usual speed
NOMINAL_S = 0.006


def _kernel() -> int:
    # no calls inside the loop, so a profiler does not slow it down
    table = dict.fromkeys(range(977), 0)
    for i in range(40_000):
        table[i % 977] += i
    return table[0]


def slowdown(samples: int = 1) -> float:
    """How much slower than nominal the host runs right now (>1 is
    slower); the median of *samples* timings of the kernel. A host time
    divided by this factor is the time on the nominal host."""
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / NOMINAL_S
