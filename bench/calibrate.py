"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of pure-Python code can drift by up to 2x over
minutes (measured on a 2-vCPU cloud VM), far beyond any bound a regression
gate can use.  A fixed
kernel that does the same kind of work as the workload, and touches no
`entroineq` code, is timed between ops throughout each measured phase, and
timings are reported scaled by `nominal time / median kernel time`: seconds
on a host where the kernel takes its nominal time.  The raw kernel time is
reported too, so raw timings can be recovered.

Slowdowns do not hit all code alike, so there are two kernels:

- "objects": small frozen dataclasses converting tuples, `math.fsum` over
  logs and dict stores, like the table and entropy layers.  On one 3-minute
  stretch, 15 s medians of an su2 op varied by 41% (IQR/median) while their
  ratio to this kernel varied by 3%.
- "float": a scalar three-term recurrence, like `specfun.jacobi`.  In one
  150 s run, 10 s medians of `dmatrix` at j=12 and of a scalar float loop
  both varied by about 18% while their ratio stayed within 3%.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass

#: Minimum time between two kernel samples inside a measured phase.
INTERVAL_S = 0.25


@dataclass(frozen=True)
class _Cell:
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


def _objects_kernel() -> float:
    total = 0.0
    store = {}
    for i in range(600):
        cell = _Cell((i, 0.5 * i, 1.5, 2.5))
        total += math.fsum(v * math.log(v + 1.0) for v in cell.values)
        x = 0.3 + (i % 10) * 0.05
        p_prev, p_curr = 1.0, x
        for k in range(2, 12):
            p_prev, p_curr = p_curr, ((2 * k - 1) * x * p_curr - (k - 1) * p_prev) / k
        total += p_curr
        store[i % 61] = cell
    return total


def _float_kernel() -> float:
    total = 0.0
    for i in range(400):
        x = -0.9 + (i % 19) * 0.1
        p_prev, p_curr = 1.0, x
        for k in range(2, 40):
            p_prev, p_curr = p_curr, ((2 * k - 1) * x * p_curr - (k - 1) * p_prev) / k
        total += p_curr
    return total


#: kernel name -> (kernel, nominal time in seconds)
KERNELS = {"objects": (_objects_kernel, 0.004), "float": (_float_kernel, 0.003)}


class Calibrator:
    """Collects kernel timings and turns them into a scale factor."""

    def __init__(self, kernel: str) -> None:
        self.kernel = kernel
        self._run, self._nominal_s = KERNELS[kernel]
        self.samples: list[float] = []
        #: wall time spent in the kernel, to subtract from phase times
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        """Time the kernel once, with the cyclic collector paused."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self._run()
            end = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(end - start)
        self.spent += end - start
        self._last = end

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    @property
    def kernel_s(self) -> float:
        return statistics.median(self.samples)

    @property
    def factor(self) -> float:
        """Multiply a measured time by this to scale it to the nominal host."""
        return self._nominal_s / self.kernel_s
