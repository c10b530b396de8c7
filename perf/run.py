#!/usr/bin/env python3
"""The statement-latency benchmark: one command for every metric.

    python3 perf/run.py --all [--seed N] [--trace]      every workload
    python3 perf/run.py --workload W --seed N           one workload
    python3 perf/run.py --calibrate K                   spread of K full sets
    python3 perf/run.py --regen-expected                rewrite perf/expected/

Each workload runs in its own subprocess (``python3 -m perf.harness``)
with ``REPRO_EXEC`` unset, so the program's default engine is measured,
and ``PYTHONHASHSEED=0``, so set-order-dependent counts repeat. Every
metric is printed by name with its unit; results are checked and any
failure makes the exit code non-zero. With a single ``--workload`` the
last line of standard output is the contract's JSON object:
``--trace 0`` carries the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent
# Import as the ``perf`` package: the script directory must not be on
# the path, or perf/trace.py would shadow the standard library's trace.
sys.path[0] = str(REPO_ROOT)

from perf import DEFAULT_SEED  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(workload["name"] for workload in BENCHMARK["workloads"])
# How long the timed passes of one run last: the benchmark's, the same
# on both sides of any comparison, never the caller's.
RUN_SECONDS = BENCHMARK["run_seconds"]
# A child is killed well inside the contract's 180 s per run.
CHILD_TIMEOUT_S = 170


def child_environment() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_EXEC", None)
    env["PYTHONHASHSEED"] = "0"
    # The program is built from this checkout's source, nowhere else.
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def run_child(workload: str, seed: int, trace: bool,
              smoke: bool = False, regen_expected: bool = False) -> dict:
    """Run one workload in a fresh process; returns its result object."""
    command = [
        sys.executable, "-m", "perf.harness",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(RUN_SECONDS), "--trace", str(int(trace)),
    ]
    if smoke:
        command.append("--smoke")
    if regen_expected:
        command.append("--regen-expected")
    completed = subprocess.run(
        command, cwd=REPO_ROOT, env=child_environment(),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise SystemExit(
            f"{workload}: harness exited with code {completed.returncode}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def print_result(result: dict, trace: bool = False) -> None:
    """Every metric of one run by name, with its unit. A traced run
    prints its per-layer metrics; end-to-end numbers are only printed
    from runs made with tracing off."""
    env = result["env"]
    print(
        f"== {result['workload']}  seed={env['seed']} sf={env['scale_factor']} "
        f"pool={env['pool_pages']}p clients={env['clients']} "
        f"passes={env['passes']} N={env['n_statements']} "
        f"commit={env['commit']} python={env['python']} cpus={env['cpu_count']}"
    )
    for name, metric in result["per_layer" if trace else "end_to_end"].items():
        print(f"  {name:38s} {metric['value']:14.4f} {metric['unit']}")
    if not trace:
        # Beside the reference-speed timings above (perf/speed.py).
        for name, metric in result["wall_clock"].items():
            print(f"  {'wall_clock.' + name:38s} {metric['value']:14.4f} {metric['unit']}")
    print(
        f"  {'fail_ratio':38s} {result['fail_ratio']:14.4f} ratio "
        f"({result['failed']} of {result['attempted']})"
    )
    for message in result["failures"]:
        print(f"  FAILED: {message}")


def contract_line(result: dict, trace: bool) -> str:
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": result["per_layer" if trace else "end_to_end"],
        }
    )


def calibrate(sets: int, seed: int) -> int:
    """Run the full set ``sets`` times on unchanged code, each with
    another seed (as the acceptance runs do), and print the spread."""
    values: dict = {}
    failed = 0
    for index in range(sets):
        for workload in WORKLOAD_NAMES:
            result = run_child(workload, seed + index, trace=False)
            failed += result["failed"]
            for name, metric in result["end_to_end"].items():
                values.setdefault((workload, name), []).append(metric["value"])
            print(f"set {index + 1}/{sets} {workload}: done", file=sys.stderr)
    print(f"{'workload':14s} {'metric':20s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread/median':>14s}")
    for (workload, name), series in values.items():
        median = statistics.median(series)
        if len(series) > 1:
            q1, _q2, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = median
        print(f"{workload:14s} {name:20s} {median:12.4f} {q1:12.4f} "
              f"{q3:12.4f} {(q3 - q1) / median:14.4f}   "
              + " ".join(f"{value:.4g}" for value in series))
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    # Not a setting: the acceptance driver's command line carries the
    # run length it read from BENCHMARK.json, and nothing else is accepted.
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="SF 0.002, one pass: a functional check")
    parser.add_argument("--calibrate", type=int, metavar="K")
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)

    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("no src/repro beside perf/: nothing to measure", file=sys.stderr)
        return 2
    if args.seconds != RUN_SECONDS:
        parser.error(
            f"the run length is BENCHMARK.json's run_seconds ({RUN_SECONDS}), "
            "the same on both sides of every comparison"
        )

    if args.calibrate:
        return calibrate(args.calibrate, args.seed)
    if args.regen_expected:
        for workload in [args.workload] if args.workload else WORKLOAD_NAMES:
            print_result(run_child(workload, DEFAULT_SEED, False,
                                   regen_expected=True))
        return 0
    if args.workload:
        result = run_child(args.workload, args.seed, bool(args.trace),
                           args.smoke)
        print_result(result, bool(args.trace))
        print(contract_line(result, bool(args.trace)))
        return 0 if result["failed"] == 0 else 1
    if not args.all:
        parser.error("give --workload, --all, --calibrate or --regen-expected")
    failed = 0
    for workload in WORKLOAD_NAMES:
        for trace in ((False, True) if args.trace else (False,)):
            result = run_child(workload, args.seed, trace, args.smoke)
            print_result(result, trace)
            failed += result["failed"]
    print(f"{'FAILED' if failed else 'ok'}: {failed} failed checks")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
