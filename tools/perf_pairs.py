#!/usr/bin/env python3
"""Alternating parent/change pairs of one perf workload, with a verdict.

    python3 tools/perf_pairs.py <parent-rev> --workload W [--pairs 10] [--seed S]

The parent's committed files are unpacked (``git archive``) into a
temporary directory — under ``$TMPDIR`` if set — which is removed at
exit; the change is this working tree. Each pair runs
``perf/run.py --workload W --seed N`` once per side with a seed no other
pair uses, and the side that goes first swaps every pair. Only the last
line of each run, the contract's JSON object, is read.

Per end-to-end metric it prints each side's median and quartiles, the
pairs the change won (ties count for neither side), and the verdict of
the choosing-metrics guide: a *gain* needs at least nine tenths of the
pairs and medians further apart than the parent's own interquartile
range; a *regression* is a median worse than the parent's by more than
the bound ``BENCHMARK.json`` fixes; anything else is *within bound*, or
*unresolved* when the parent's spread is wider than that bound.
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


def run_side(checkout: Path, workload: str, seed: int) -> dict:
    """One ``perf/run.py`` run in ``checkout``: its contract object."""
    completed = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload,
         "--seed", str(seed)],
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


def judge(parent, change, higher_is_better: bool, bound: float):
    """``(pairs the change won, verdict)`` for one metric."""
    sign = 1.0 if higher_is_better else -1.0
    won = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - parent_median)
    if 10 * won >= 9 * len(parent) and gap > q3 - q1:
        return won, "gain"
    if gap < -bound * parent_median:
        return won, "regression"
    if q3 - q1 > bound * parent_median:
        return won, "unresolved"
    return won, "within bound"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=101,
                        help="seed of the first pair; pair k uses seed + k")
    args = parser.parse_args(argv)

    benchmark = json.loads((REPO_ROOT / "BENCHMARK.json").read_text("utf-8"))
    parent_runs, change_runs, failed = [], [], 0
    with tempfile.TemporaryDirectory(prefix="perf-pairs-") as parent_dir:
        archive = subprocess.run(
            ["git", "archive", args.parent], cwd=REPO_ROOT,
            check=True, capture_output=True,
        )
        subprocess.run(
            ["tar", "-x", "-C", parent_dir], input=archive.stdout, check=True
        )
        sides = {"parent": Path(parent_dir), "change": REPO_ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            results = {
                side: run_side(sides[side], args.workload, args.seed + pair)
                for side in order
            }
            parent_runs.append(results["parent"])
            change_runs.append(results["change"])
            failed += results["parent"]["failed"] + results["change"]["failed"]
            print(
                f"pair {pair + 1}/{args.pairs} seed={args.seed + pair} "
                f"first={order[0]}: " + "  ".join(
                    f"{name} {results['parent']['metrics'][name]['value']:.4g}"
                    f"->{results['change']['metrics'][name]['value']:.4g}"
                    for name in results["parent"]["metrics"]
                ),
                flush=True,
            )

    print(f"\n{args.workload}: {args.pairs} pairs, parent {args.parent}")
    print(f"{'metric':14s} {'side':7s} {'q1':>10s} {'median':>10s} {'q3':>10s} "
          f"{'pairs won':>10s}  verdict")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in parent_runs]
        change = [run["metrics"][name]["value"] for run in change_runs]
        won, verdict = judge(
            parent, change, metric["better"] == "higher", metric["bound"]
        )
        for side, series in (("parent", parent), ("change", change)):
            q1, median, q3 = quartiles(series)
            tail = f"{won:>7d}/{len(series)}  {verdict}" if side == "change" else ""
            print(f"{name:14s} {side:7s} {q1:10.4g} {median:10.4g} {q3:10.4g} {tail}")
    print(f"failed checks over all runs: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
