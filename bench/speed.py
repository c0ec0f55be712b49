"""Host-speed probe that puts timings on a common scale.

On a shared host the speed of the same CPU-bound code drifts by up to ~70%
for tens of seconds at a time as other tenants load the machine, which no
median inside a 20 s run removes.  A fixed probe (this file's code, never
the program's) is timed about every PROBE_EVERY_S seconds between calls;
each call's time is multiplied by REFERENCE_S / (probe time around it), so
timings read as on the host running the probe in REFERENCE_S.
"""

from __future__ import annotations

import bisect
import math
from time import perf_counter

import numpy as np

# Probe time with one BLAS thread on an idle 2-vCPU host (Python 3.11,
# numpy 2.4); it fixes the scale only, so any constant gives comparable
# numbers on one host.
REFERENCE_S = 3.2e-3
PROBE_EVERY_S = 0.2

_MATS = 3.0 * np.eye(3) + (0.01 * np.arange(560 * 9.0).reshape(560, 3, 3)) % 1.0
_RHS = np.ones((560, 3, 1))


def probe_work() -> float:
    """A fixed mix of interpreted float arithmetic, dict stores and small
    batched numpy solves, like the program's own."""
    acc = 0.0
    table = {}
    for i in range(12_000):
        x = math.sin(i * 1e-3) * math.exp(-i * 1e-5)
        acc += x * x
        table[i & 255] = acc
    for _ in range(4):
        acc += float(np.linalg.solve(_MATS, _RHS).sum())
    return acc


def probe_seconds(repeat: int = 3) -> float:
    """Best of a few probe timings, so one interrupted probe does not count."""
    best = math.inf
    for _ in range(repeat):
        t0 = perf_counter()
        probe_work()
        best = min(best, perf_counter() - t0)
    return best


class SpeedScale:
    """Probe marks over a run, and the factor that scales a time interval."""

    def __init__(self) -> None:
        self._times: list[float] = []
        self._factors: list[float] = []

    def probe(self) -> None:
        factor = REFERENCE_S / probe_seconds()
        self._times.append(perf_counter())
        self._factors.append(factor)

    def maybe_probe(self) -> None:
        if not self._times or perf_counter() - self._times[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, t0: float, t1: float) -> float:
        """Mean factor of the last probe before t0 and the first after t1."""
        before = max(bisect.bisect_right(self._times, t0) - 1, 0)
        after = min(bisect.bisect_left(self._times, t1), len(self._times) - 1)
        return 0.5 * (self._factors[before] + self._factors[after])

    def median_factor(self) -> float:
        return float(np.median(self._factors))
