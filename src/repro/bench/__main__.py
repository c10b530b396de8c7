"""CLI entry point: ``python -m repro.bench <experiment> [...]``."""

from __future__ import annotations

import argparse
import sys

from repro.bench.harness import available_experiments, run_experiment


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (see 'list'), or 'all'",
    )
    parser.add_argument(
        "--sf",
        type=float,
        default=0.02,
        help="TPC-D scale factor for experiments that use it (default 0.02)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=5,
        help="repetitions for timed experiments (default 5)",
    )
    arguments = parser.parse_args(argv)

    if arguments.experiments == ["list"]:
        for experiment_id, title in available_experiments():
            print(f"{experiment_id:20s} {title}")
        return 0

    wanted = arguments.experiments
    if wanted == ["all"]:
        wanted = [experiment_id for experiment_id, _ in available_experiments()]

    for experiment_id in wanted:
        report = run_experiment(
            experiment_id,
            scale_factor=arguments.sf,
            runs=arguments.runs,
        )
        print(report.render())
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
