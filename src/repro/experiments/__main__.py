"""CLI for regenerating paper artifacts.

Usage::

    python -m repro.experiments                      # list experiments
    python -m repro.experiments table3               # paper protocol (1,000 reps)
    python -m repro.experiments table3 --reps 200    # faster
    python -m repro.experiments all --reps 100       # everything
    python -m repro.experiments table2 --solver slsqp

Output is written to stdout; redirect to capture EXPERIMENTS.md inputs.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..runtime import configure
from ..runtime.settings import add_runtime_options, context_from_args
from . import EXPERIMENTS, ExperimentSettings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate tables and figures from the paper.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="EXPERIMENT",
        help="experiment ids (or 'all'); omit to list available ids",
    )
    parser.add_argument("--reps", type=int, default=1_000, help="Monte-Carlo repetitions")
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--solver",
        default="newton",
        choices=("newton", "slsqp", "scalar"),
        help="HPD solver (slsqp = the paper's optimizer)",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        help="also write each regenerated table as CSV under DIR",
    )
    add_runtime_options(parser)
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-cell progress/timing lines to stderr",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if not args.experiments:
        print("Available experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        return 0
    # Route every grid-shaped experiment through the runtime layer:
    # resolve the requested parallelism / cache / fault knobs (unset
    # values fall back to the REPRO_* environment) into one immutable
    # RunContext, installed as the session default for every execute()
    # call the experiments make.
    configure(context=context_from_args(args, progress=args.progress))
    requested = list(EXPERIMENTS) if args.experiments == ["all"] else args.experiments
    unknown = [name for name in requested if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        return 2
    settings = ExperimentSettings(
        repetitions=args.reps, seed=args.seed, solver=args.solver
    )
    for name in requested:
        start = time.perf_counter()
        report = EXPERIMENTS[name](settings)
        elapsed = time.perf_counter() - start
        print(report.render())
        if args.csv:
            path = report.to_csv(f"{args.csv}/{report.experiment_id}.csv")
            print(f"[csv written to {path}]")
        print(f"\n[{name} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
