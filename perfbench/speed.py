"""Machine-speed normalisation for a shared, noisy host.

On a host whose cores are shared with other tenants, the same Python
code runs up to ~50% slower for seconds at a time.  Every timed
interval of the benchmark (one job in the closed loop, one window of
simulated time in the open loops, one stack set-up) is preceded by a
fixed reference kernel, and its wall time is scaled by
``REFERENCE_S / kernel time``: reported times read as if measured at
one fixed machine speed.  The kernel touches no ``repro`` code, so a
change to the program cannot move it; it mixes the program's two kinds
of work, interpreter-bound dict and call traffic and small dense
linear algebra.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

__all__ = ["REFERENCE_S", "SpeedGauge"]

#: the kernel's wall time on an uncontended core of the 2-vCPU x86-64
#: host the bounds in BENCHMARK.json were set on
REFERENCE_S = 0.0076


class SpeedGauge:
    """Times the reference kernel; :meth:`factor` converts the next
    measured interval to reference speed."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((32, 32))
        self._phases = rng.standard_normal((4, 64)) * 1j

    def kernel_s(self) -> float:
        start = perf_counter()
        table: dict[int, tuple[int, str]] = {}
        for i in range(12_000):
            table[i % 509] = (i, str(i))
        acc = 0.0
        for _ in range(80):
            acc += float(np.linalg.svd(self._matrix, compute_uv=False)[0])
            acc += float(np.abs(np.exp(self._phases)).sum())
        return perf_counter() - start

    def factor(self) -> float:
        """REFERENCE_S / kernel time now: below 1 when the host is slow."""
        return REFERENCE_S / self.kernel_s()
