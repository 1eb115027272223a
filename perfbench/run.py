"""Benchmark of gleason_lab: time to a verified verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  BLAS is pinned to one thread and load comes from this one process,
one check at a time.  The run repeats whole rounds of the workload's fixed
job until S seconds have passed (and at least MIN_CHECKS checks ran), checks
every output with ``checks``, and prints one JSON object as the last line of
standard output; the line before it is the environment block.  Times are
corrected for the machine's momentary speed (``speed``, ``probe``).  The full
result, with the environment and the raw times, is also written to
``perfbench/out/``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics of ``tracer``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np

import probe
import speed
import tracer
import workloads
from gleason_lab import kernels, suite

SETUP_SAMPLES = 7
MIN_CHECKS = 100

END_TO_END_UNITS = {
    "wall_s": "s",
    "check_p50_ms": "ms",
    "check_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "kernels_backend": kernels.active_backend(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """(raw, speed-corrected) seconds from launching a fresh interpreter to a
    ready workload, one pair per sample; see probe.py."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed)]
    raw, corrected = [], []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
                code = proc.wait(timeout=120)
            except BaseException:
                proc.kill()
                raise
        fields = line.split()
        if code != 0 or len(fields) != 4 or fields[0] != "ready":
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        r0, r1, spent = map(float, fields[1:])
        raw.append(elapsed - spent)
        corrected.append((elapsed - spent) * 2.0 * probe.PY_REFERENCE_S / (r0 + r1))
    return raw, corrected


def run_rounds(wl, seconds: float, trace: bool):
    """Whole rounds until `seconds` pass; with tracing, alternate untraced and traced.

    Returns the tally, one record per round, and the tracer (or None).
    """
    tr = tracer.Tracer() if trace else None
    rounds = []
    tally = workloads.Tally()
    start = time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            t0 = time.perf_counter()
            if traced:
                with tr.installed():
                    timer, outputs = wl.run_round()
            else:
                timer, outputs = wl.run_round()
            wall = time.perf_counter() - t0 - timer.reference_seconds()
            latencies = timer.corrected()
            rounds.append({
                "traced": traced,
                "wall_raw": wall,
                "wall": wall * sum(latencies) / sum(timer.raw),
                "latencies_raw": timer.raw,
                "latencies": latencies,
            })
            wl.verify(outputs, tally)
        checks_timed = sum(len(r["latencies"]) for r in rounds if not r["traced"])
        if time.perf_counter() - start >= seconds and (trace or checks_timed >= MIN_CHECKS):
            return tally, rounds, tr


def summary(rounds: list[dict], key: str) -> dict:
    """Median round wall and check-latency quantiles of the untraced rounds."""
    plain = [r for r in rounds if not r["traced"]]
    lat = [x for r in plain for x in r["latencies" + key]]
    return {
        "wall_s": statistics.median(r["wall" + key] for r in plain),
        "check_p50_ms": statistics.median(lat) * 1e3,
        "check_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = environment()
    setup_raw, setup = ([], []) if args.trace else measure_setup(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    tally, rounds, tr = run_rounds(wl, args.seconds, bool(args.trace))

    if args.trace:
        names = [p.name for p in suite.REGISTRY]
        overhead = (statistics.median(r["wall"] for r in rounds if r["traced"])
                    - statistics.median(r["wall"] for r in rounds if not r["traced"]))
        values = tr.metrics(sum(r["traced"] for r in rounds), names, overhead)
        units = {name: unit for name, unit, _ in tracer.per_layer_metrics(names)}
        raw = {}
    else:
        values = summary(rounds, "")
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        raw = dict(summary(rounds, "_raw"), setup_s=statistics.median(setup_raw))
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "raw_metrics": raw,
        "reference": {"python_s": speed.PYTHON_S, "blas_s": speed.BLAS_S,
                      "blas_weight": wl.BLAS_WEIGHT},
        "setup_samples_raw_s": setup_raw, "setup_samples_s": setup,
        "rounds": [{k: r[k] for k in ("traced", "wall_raw", "wall")} for r in rounds],
        "errors": tally.errors[:20], "wrong": tally.wrong[:20], **result,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=2) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
