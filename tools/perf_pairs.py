#!/usr/bin/env python3
"""Alternating parent/change pairs of perf workloads, with a verdict.

    python3 tools/perf_pairs.py <parent-rev> --workload W [--workload W2 ...]
        [--pairs 10] [--seed S] [--trace]

The parent's committed files are unpacked (``git archive``) once into a
temporary directory — under ``$TMPDIR`` if set — which is removed at
exit; the change is this working tree. Workloads run one after another,
each in its own alternating loop: each pair runs
``perf/run.py --workload W --seed N`` once per side with a seed no other
pair of that workload uses, and the side that goes first swaps every
pair. Only the last line of each run, the contract's JSON object, is
read.

Per workload and end-to-end metric it prints each side's median and
quartiles, the pairs the change won (ties count for neither side), and
the verdict of the choosing-metrics guide: a *gain* needs at least nine
tenths of the pairs and medians further apart than the parent's own
interquartile range; a *regression* is a median worse than the
parent's by more than the bound ``BENCHMARK.json`` fixes; anything else
is *within bound*, or *unresolved* when the parent's spread is wider
than that bound.

With ``--trace`` every run is traced (``perf/run.py ... --trace 1``) and
the table judges the ``per_layer`` metrics ``BENCHMARK.json`` names
instead, each in the direction its ``better`` gives. They have no
bound, so a per-layer verdict is *gain* or *not settled*.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_side(
    checkout: Path, workload: str, seed: int, trace: bool = False
) -> dict:
    """One ``perf/run.py`` run in ``checkout``: its contract object."""
    completed = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(int(trace))],
        cwd=checkout, capture_output=True, text=True,
    )
    lines = completed.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{checkout}: no contract line from perf/run.py")
    return json.loads(lines[-1])


def quartiles(series):
    if len(series) < 2:
        return series[0], series[0], series[0]
    q1, median, q3 = statistics.quantiles(series, n=4)
    return q1, median, q3


def judge(parent, change, higher_is_better: bool, bound=None):
    """``(pairs the change won, verdict)`` for one metric; a metric
    without a ``bound`` is a *gain* or *not settled*."""
    sign = 1.0 if higher_is_better else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - parent_median)
    if 10 * won >= 9 * len(parent) and gap > q3 - q1:
        return won, "gain"
    if bound is None:
        return won, "not settled"
    if gap < -bound * parent_median:
        return won, "regression"
    if q3 - q1 > bound * parent_median:
        return won, "unresolved"
    return won, "within bound"


def run_pairs(
    sides: dict, workload: str, pairs: int, seed: int, trace: bool = False
):
    """``(parent runs, change runs, failed checks)`` of one workload's
    alternating loop, printing a line per pair."""
    parent_runs, change_runs, failed = [], [], 0
    for pair in range(pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        results = {
            side: run_side(sides[side], workload, seed + pair, trace)
            for side in order
        }
        parent_runs.append(results["parent"])
        change_runs.append(results["change"])
        failed += results["parent"]["failed"] + results["change"]["failed"]
        # A traced run carries dozens of per-layer metrics: those are
        # left to the table.
        print(
            f"{workload} pair {pair + 1}/{pairs} seed={seed + pair} "
            f"first={order[0]}: " + "  ".join(
                f"{name} {results['parent']['metrics'][name]['value']:.4g}"
                f"->{results['change']['metrics'][name]['value']:.4g}"
                for name in ([] if trace else results["parent"]["metrics"])
            ),
            flush=True,
        )
    return parent_runs, change_runs, failed


def print_verdicts(
    workload: str, parent_rev: str, metrics: list, parent_runs, change_runs
) -> None:
    """One verdict table: a row per side per metric of ``metrics`` (a
    ``BENCHMARK.json`` list) that the runs report."""
    metrics = [m for m in metrics if m["name"] in parent_runs[0]["metrics"]]
    width = max([len("metric")] + [len(m["name"]) for m in metrics])
    print(f"\n{workload}: {len(parent_runs)} pairs, parent {parent_rev}")
    print(f"{'metric':{width}s} {'side':7s} {'q1':>10s} {'median':>10s} "
          f"{'q3':>10s} {'pairs won':>10s}  verdict")
    for metric in metrics:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        won, verdict = judge(
            parent, change, metric["better"] == "higher", metric.get("bound")
        )
        for side, series in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(series)
            tail = f"{won:>7d}/{len(series)}  {verdict}" if side == "change" else ""
            print(f"{name:{width}s} {side:7s} {q1:10.4g} {median:10.4g} "
                  f"{q3:10.4g} {tail}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        help="repeat to run several workloads in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair k uses seed + k")
    parser.add_argument("--trace", action="store_true",
                        help="trace every run and judge the per-layer metrics")
    args = parser.parse_args(argv)

    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))
    results, failed = {}, 0
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as parent_dir:
        archive = subprocess.run(
            ["git", "archive", args.parent], cwd=REPO_ROOT,
            check=True, capture_output=True,
        )
        subprocess.run(
            ["tar", "-x", "-C", parent_dir], input=archive.stdout, check=True
        )
        sides = {"parent": Path(parent_dir), "change": REPO_ROOT}
        for workload in args.workload:
            parent_runs, change_runs, workload_failed = run_pairs(
                sides, workload, args.pairs, args.seed, args.trace
            )
            results[workload] = (parent_runs, change_runs)
            failed += workload_failed

    metrics = benchmark["per_layer" if args.trace else "end_to_end"]
    for workload, (parent_runs, change_runs) in results.items():
        print_verdicts(workload, args.parent, metrics, parent_runs, change_runs)
    print(f"\nfailed checks over all runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
