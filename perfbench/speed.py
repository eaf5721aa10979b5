"""Machine-speed reference sampled between ops.

The benchmark shares its host with other tenants, and the speed of the whole
machine drifts by tens of percent over minutes. Interpreter work and numpy
work slow down together (correlation 0.98 over 1 s windows on the 2-core
2.1 GHz Xeon VM this benchmark was tuned on). A fixed slice of both kinds of
work, timed between ops, therefore measures how fast the machine ran while
the ops ran.

The slice allocates nothing the garbage collector tracks and touches no
ptscatter code, so the program's own speed, heap or imports cannot move it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# median seconds of one sample on that VM when it was quiet; only a unit
REFERENCE_S = 0.0085


class MachineSpeed:
    """Samples of the reference slice; ``slowdown`` > 1 means slower than nominal."""

    def __init__(self):
        self._z = np.linspace(0.0, 1.0, 4096) + 0.5j
        self._buf = np.empty_like(self._z)
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(60000):
            acc += i * i % 7
        for _ in range(24):
            np.cos(self._z, out=self._buf)
            np.exp(self._buf, out=self._buf)
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        return elapsed

    def slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """Median of samples[start:stop] (clipped to the samples taken) over REFERENCE_S."""
        return statistics.median(self.samples[max(start, 0):stop]) / REFERENCE_S
