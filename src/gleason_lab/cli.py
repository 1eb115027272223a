"""Command line entry point.

``gleason-lab run`` executes the property suite over an (algebra, dim, seed)
matrix and writes a JSON or text report; exit code 0 means every non-skipped
record passed.  ``gleason-lab demo`` prints the counterexample transcript.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .suite import RunConfig, demo_counterexamples, emit_report, run_suite

_SEED_ENV = "GLEASON_LAB_SEED"


def _parse_tolerances(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise argparse.ArgumentTypeError(f"--tol expects name=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = float(value)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gleason-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the verification suite")
    run.add_argument("--algebra", nargs="+", choices=["R", "C", "H"], default=None)
    run.add_argument("--dim", nargs="+", type=int, default=None)
    run.add_argument("--seed", nargs="+", type=int, default=None)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--tol", nargs="*", default=[], metavar="NAME=VALUE")
    run.add_argument("--only", default=None, help="glob filter on property names")
    run.add_argument("--out", default=None, help="write the report here instead of stdout")
    run.add_argument("--format", choices=["json", "text"], default="text")
    run.add_argument("--config", default=None, help="JSON config file; flags override it")
    run.add_argument("--list", action="store_true", help="list properties and exit")

    demo = sub.add_parser("demo", help="print the counterexample transcript")
    demo.add_argument("--out", default=None)
    return parser


def _config_from_args(args) -> RunConfig:
    base = {}
    if args.config:
        with open(args.config) as fh:
            base = json.load(fh)
    cfg = RunConfig.from_json(base)
    seeds = cfg.seeds
    if args.seed is not None:
        seeds = tuple(args.seed)
    elif not args.config and _SEED_ENV in os.environ:
        seeds = (int(os.environ[_SEED_ENV]),)
    return RunConfig(
        algebras=tuple(args.algebra) if args.algebra else cfg.algebras,
        dims=tuple(args.dim) if args.dim else cfg.dims,
        seeds=seeds,
        trials=args.trials if args.trials is not None else cfg.trials,
        tolerances={**cfg.tolerances, **_parse_tolerances(args.tol)},
        only=args.only if args.only is not None else cfg.only,
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "demo":
        text = demo_counterexamples(args.out)
        if args.out is None:
            sys.stdout.write(text)
        return 0

    if args.list:
        from .suite import REGISTRY

        for prop in REGISTRY:
            sys.stdout.write(f"{prop.name:40s} {prop.law}\n")
        return 0

    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        parser.error(str(exc))
    report = run_suite(cfg)
    blob = emit_report(report, args.format)
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(blob)
    else:
        sys.stdout.buffer.write(blob)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
