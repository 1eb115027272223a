"""Set-up probe: a fresh interpreter that makes a workload ready.

    python3 perfbench/probe.py WORKLOAD SEED

It imports gleason_lab and the benchmark's workloads and generates the
workload's inputs, which is what a user pays on every run, then prints
``ready R0 R1 SPENT``.  R0 and R1 are the times of a pure-Python reference
loop at its start and at its end (best of five each), which measure how fast
the machine ran the probe, and SPENT is the time those loops took; run.py
subtracts SPENT and corrects the rest to PY_REFERENCE_S, like speed.py does
for checks.  The loop is pure Python because numpy is not yet imported when
the first one runs.
"""

import sys
import time

PY_REFERENCE_S = 3.0e-4  # the loop on an unloaded 2-vCPU x86_64 sandbox


def python_reference() -> float:
    t0 = time.perf_counter()
    total = 0.0
    for i in range(3000):
        total += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def best_reference() -> tuple[float, float]:
    """(best of five reference times, time the five took)."""
    t0 = time.perf_counter()
    best = min(python_reference() for _ in range(5))
    return best, time.perf_counter() - t0


if __name__ == "__main__":
    r0, spent0 = best_reference()
    from run import ROOT  # noqa: F401  (puts src/ on the path and pins BLAS)
    import workloads

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    r1, spent1 = best_reference()
    print("ready", r0, r1, spent0 + spent1, flush=True)
