"""Check timing corrected for the machine's momentary speed.

On a small shared machine the CPU speed available to one process swings by up
to a factor of two within seconds, presumably because other tenants share its
cores.  Raw timings of the same workload then spread by 10-34% between runs.
Before every check the benchmark therefore times a fixed reference,
independent of the program, in two parts:

- Python arithmetic around tiny numpy products, which slows the way the
  program's object-heavy paths do;
- two complex matrix products of order 88, which slow the way its BLAS and
  LAPACK calls do (less than the Python part: about 1.5x when it slows 2x).

Each workload weighs the two parts by the kind of work its checks do
(BLAS_WEIGHT).  A check's latency is divided by the weighted slowdown of the
reference, averaged over the reference just before and just after the check:
the result is the latency the check would have at the speed at which the
Python part takes PYTHON_S and the BLAS part BLAS_S.  Raw times are kept next
to the corrected ones in every result file.
"""

from __future__ import annotations

import time

import numpy as np

# The two parts on an unloaded 2-vCPU x86_64 sandbox.
PYTHON_S = 2.0e-4
BLAS_S = 2.2e-4

_SMALL = np.arange(64.0).reshape(8, 8) / 64.0
_LARGE = np.arange(88.0 * 88).reshape(88, 88) / 88.0**2 * (1.0 + 0.5j)


def reference_time() -> tuple[float, float]:
    """Seconds the Python part and the BLAS part of the reference take now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(150):
        total += float((_SMALL @ _SMALL)[0, 0]) + i * 0.5
    t1 = time.perf_counter()
    total += float((_LARGE @ (_LARGE @ _LARGE))[0, 0].real)
    return t1 - t0, time.perf_counter() - t1


class CheckTimer:
    """Raw latency of each check of one round, with the reference timed before it."""

    def __init__(self, blas_weight: float):
        self.blas_weight = blas_weight
        self.refs: list[tuple[float, float]] = []
        self.raw: list[float] = []

    def run(self, fn, *args):
        self.refs.append(reference_time())
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.raw.append(time.perf_counter() - t0)

    def reference_seconds(self) -> float:
        """Time the round spent in the reference."""
        return sum(p + b for p, b in self.refs)

    def corrected(self) -> list[float]:
        """Speed-corrected latencies; times the reference once more after the last check."""
        refs = self.refs + [reference_time()]
        w = self.blas_weight
        out = []
        for i, lat in enumerate(self.raw):
            (p0, b0), (p1, b1) = refs[i], refs[i + 1]
            slowdown = (1.0 - w) * (p0 + p1) / (2.0 * PYTHON_S) + w * (b0 + b1) / (2.0 * BLAS_S)
            out.append(lat / slowdown)
        return out
