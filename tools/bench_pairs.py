"""Alternating benchmark pairs in two checkouts, summarized per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seconds S [--seed S0] [--out PATH]

PARENT and CHANGE are the roots of two source checkouts.  Pair i runs
``perfbench/run.py --workload W --seed S0+i --seconds S --trace 0`` once in
each, the parent first in even pairs and the change first in odd ones, so
that a drift in the machine's speed favours neither side.  For each
end-to-end metric of ``BENCHMARK.json`` the tool prints the median and the
quartiles of both sides, the relative change of the medians, the pairs the
change won (better on the same seed, in the metric's direction) and whether
the medians differ by more than the parent's interquartile range.  A claimed
gain needs at least 9 wins in 10 pairs and a median shift beyond the parent's
IQR, in the better direction: the ``gain`` column.  A run whose checks failed
or whose answers were wrong is reported on standard error as it finishes.
With ``--out PATH`` the tool also writes a JSON file (:func:`write_record`):
each side's commit and whether its tree differs from it or holds bytecode
(:func:`commit_of`), every pair's seed, per-run metrics and per-run check
counts, the rows of :func:`summarize` and each side's environment block, the
line that ``perfbench/run.py`` prints before its result.  Every run compiles
the package from source, and only the package (:func:`run`).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of a sample by the inclusive method; one value is all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(pairs: list[tuple[dict, dict]], better: dict[str, str]) -> list[dict]:
    """One row per metric of ``better`` (name -> "lower" or "higher") over
    ``pairs``, a list of (parent metrics, change metrics), each a dict of one
    value per metric name."""
    rows = []
    for name, direction in better.items():
        old = [parent[name] for parent, _ in pairs]
        new = [change[name] for _, change in pairs]
        sign = 1.0 if direction == "lower" else -1.0
        parent, change = quartiles(old), quartiles(new)
        won = sum(sign * (c - p) < 0 for p, c in zip(old, new))
        beyond_iqr = abs(change[1] - parent[1]) > parent[2] - parent[0]
        rows.append({
            "metric": name,
            "better": direction,
            "parent": parent,
            "change": change,
            "delta": (change[1] - parent[1]) / parent[1] if parent[1] else math.nan,
            "won": won,
            "pairs": len(pairs),
            "beyond_iqr": beyond_iqr,
            "gain": 10 * won >= 9 * len(pairs) and beyond_iqr and sign * (change[1] - parent[1]) < 0,
        })
    return rows


def format_rows(rows: list[dict]) -> list[str]:
    """The table of :func:`summarize`: medians with their [q1, q3]."""

    def side(q: tuple[float, float, float]) -> str:
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"

    lines = [f"{'metric':<14} {'parent median [q1, q3]':<32} {'change median [q1, q3]':<32} "
             f"{'delta':>7} {'won':>6} {'>IQR':>5} {'gain':>5}"]
    for r in rows:
        lines.append(f"{r['metric']:<14} {side(r['parent']):<32} {side(r['change']):<32} "
                     f"{r['delta']:>+7.1%} {r['won']:>3}/{r['pairs']:<2} {'yes' if r['beyond_iqr'] else 'no':>5} "
                     f"{'yes' if r['gain'] else 'no':>5}")
    return lines


# numpy and the standard-library modules that a run of perfbench/run.py imports
# (dataclasses through its tracer, its workloads and the package): their bytecode
# is compiled into each run's cache before the run (:func:`run`)
PREFILL = ("numpy", "__future__", "argparse", "ctypes", "dataclasses", "json", "platform", "resource", "statistics",
           "subprocess", "time", "pathlib")


def run(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(environment block, result line) of one benchmark run in ``checkout``.

    The run and every interpreter it starts read and write bytecode under a
    fresh ``PYTHONPYCACHEPREFIX``, so each compiles the package from source
    whatever ``__pycache__`` the checkout holds.  An interpreter started
    outside the checkout first imports the modules of ``PREFILL`` under the
    same prefix, writing their bytecode even where ``PYTHONDONTWRITEBYTECODE``
    is set, so that the run does not compile numpy and the standard library:
    otherwise they add about 0.5 s to ``setup_s``, which ``perfbench/run.py``
    run directly, on the interpreter's own caches, does not pay."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        environ = {**os.environ, "PYTHONPYCACHEPREFIX": cache}
        writer = {k: v for k, v in environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
        subprocess.run([sys.executable, "-c", f"import {', '.join(PREFILL)}"], cwd=cache, check=True, env=writer)
        out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True, env=environ)
    *_, env, result = out.stdout.strip().splitlines()
    return json.loads(env)["environment"], json.loads(result)


def _bytecode(path: str) -> bool:
    return "__pycache__" in path.split("/") or path.endswith((".pyc", ".pyo"))


def commit_of(checkout: Path) -> dict:
    """{"commit": the checkout's HEAD, "dirty": whether its tree differs from
    that commit, by ``git status --porcelain --ignored``}: a changed or
    untracked file makes it dirty, and so does ignored bytecode, which an
    import without a cache prefix would read; other ignored files do not."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout

    status = git("status", "--porcelain", "--ignored").splitlines()
    dirty = any(not line.startswith("!! ") or _bytecode(line[3:]) for line in status)
    return {"commit": git("rev-parse", "HEAD").strip(), "dirty": dirty}


def write_record(path: Path, workload: str, seconds: float, seeds: list[int], pairs: list[tuple[dict, dict]],
                 checks: list[dict[str, dict]], rows: list[dict], environment: dict[str, dict],
                 commits: dict[str, dict]) -> None:
    """The JSON file of ``--out``: the workload and run length, the commit of
    each side (:func:`commit_of`), each pair's seed with the (parent, change)
    metrics of :func:`summarize` and, per side, the run's ``attempted``,
    ``failed`` and ``correct`` (``checks``), the rows, and the environment
    block of each side."""
    record = {
        "workload": workload,
        "seconds": seconds,
        "commits": commits,
        "environment": environment,
        "pairs": [{"seed": seed, "parent": parent, "change": change, "checks": check}
                  for seed, (parent, change), check in zip(seeds, pairs, checks)],
        "summary": rows,
    }
    path.write_text(json.dumps(record, indent=2) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair; pair i takes seed + i")
    parser.add_argument("--out", type=Path, help="also write the pairs, the summary and the environment as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    pairs, checks, environment = [], [], {}
    for i in range(args.pairs):
        seed = args.seed + i
        order = [("parent", args.parent), ("change", args.change)]
        if i % 2:
            order.reverse()
        results = {}
        for side, path in order:
            environment[side], results[side] = run(path, args.workload, seed, args.seconds)
        for side, result in results.items():
            if result["failed"] or not result["correct"]:
                print(f"seed {seed}: {side} failed {result['failed']} of {result['attempted']} checks, "
                      f"correct={result['correct']}", file=sys.stderr)
        pairs.append(tuple({k: v["value"] for k, v in results[s]["metrics"].items()} for s in ("parent", "change")))
        checks.append({s: {k: results[s][k] for k in ("attempted", "failed", "correct")} for s in ("parent", "change")})
        print(f"pair {i + 1}/{args.pairs} (seed {seed}) done", file=sys.stderr, flush=True)
    rows = summarize(pairs, better)
    print("\n".join(format_rows(rows)))
    if args.out:
        seeds = [args.seed + i for i in range(args.pairs)]
        commits = {"parent": commit_of(args.parent), "change": commit_of(args.change)}
        write_record(args.out, args.workload, args.seconds, seeds, pairs, checks, rows, environment, commits)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
