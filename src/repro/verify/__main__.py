"""CLI entry point: ``python -m repro.verify <command> [...]``.

Commands:

* ``smoke`` — a fast fixed-seed pass: a small fuzz batch under the
  tier-1 config matrix with property auditing, plus the §5.2.1 audit
  battery. This is the invariant safety net CI and CLAUDE.md point at.
* ``fuzz --seed S --n N [--sf F] [--tables T] [--tier1]`` — N random
  queries under the *full* feature-toggle matrix; failures are
  delta-debugged to a minimal repro and printed as pytest cases.
* ``audit`` — the fixed plan-property audit battery alone.
* ``fleet [--rounds N]`` — the workload-feedback differential: one
  feedback round over the skewed fleet under both executor
  engines; rows must be byte-identical pre/post feedback and across
  engines, with no regression admitted by the gate.

Exit status is non-zero when any mismatch survives.
"""

from __future__ import annotations

import argparse
import sys

from repro.verify.gen import GenConfig
from repro.verify.oracle import (
    full_matrix,
    run_audit_battery,
    run_fuzz,
    tier1_matrix,
)
from repro.verify.shrink import shrink


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description="Differential plan-oracle harness.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("smoke", help="fast fixed-seed correctness pass")

    fuzz = commands.add_parser(
        "fuzz", help="config-matrix fuzz with automatic failure shrinking"
    )
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--n", type=int, default=100, help="query count")
    fuzz.add_argument(
        "--sf",
        type=float,
        default=1.0,
        help="row-count scale factor for generated tables (default 1.0)",
    )
    fuzz.add_argument(
        "--tables",
        type=int,
        default=3,
        help="tables per generated schema (default 3)",
    )
    fuzz.add_argument(
        "--tier1",
        action="store_true",
        help="use the 4-config tier-1 matrix instead of the full 17",
    )
    fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures without delta-debugging them",
    )

    commands.add_parser("audit", help="plan-property audit battery")

    fleet = commands.add_parser(
        "fleet", help="two-engine workload-feedback differential"
    )
    fleet.add_argument(
        "--rounds",
        type=int,
        default=4,
        help="literal-rotation rounds (8 statements each, default 4)",
    )

    arguments = parser.parse_args(argv)
    if arguments.command == "smoke":
        return _smoke()
    if arguments.command == "fuzz":
        return _fuzz(arguments)
    if arguments.command == "fleet":
        return _fleet(arguments)
    return _audit()


def _smoke() -> int:
    # compare_exec_modes re-runs every chosen plan under both executor
    # engines (the block engine and the tree-walking interpreter) and
    # requires identical rows in identical order.
    report = run_fuzz(
        seed=2026,
        n=12,
        configs=tier1_matrix(),
        audit_configs=("full", "disabled"),
        compare_exec_modes=True,
    )
    print(f"fuzz smoke: {report.summary()}")
    failed = _report_failures(report, do_shrink=False)
    audit_mismatches = run_audit_battery()
    print(
        "audit battery: "
        + ("ok" if not audit_mismatches else f"{len(audit_mismatches)} FAILURES")
    )
    for mismatch in audit_mismatches:
        print(f"  {mismatch}")
    return 1 if (failed or audit_mismatches) else 0


def _fuzz(arguments) -> int:
    gen_config = GenConfig(
        tables=arguments.tables, row_scale=arguments.sf
    )
    configs = tier1_matrix() if arguments.tier1 else full_matrix()
    report = run_fuzz(
        seed=arguments.seed,
        n=arguments.n,
        gen_config=gen_config,
        configs=configs,
        audit_configs=("full",),
    )
    print(f"fuzz: {report.summary()}")
    return 1 if _report_failures(
        report, do_shrink=not arguments.no_shrink, configs=configs
    ) else 0


def _report_failures(report, do_shrink: bool, configs=None) -> bool:
    for failure in report.failures:
        print(f"\nFAILING QUERY: {failure.spec.sql()}")
        for mismatch in failure.mismatches:
            print(f"  {mismatch}")
        if do_shrink and failure.spec.raw is None:
            result = shrink(failure.schema, failure.spec, configs)
            print(
                f"shrunk to {result.spec.clause_count()} clauses "
                f"in {result.trials} trials: {result.sql}"
            )
            print("--- paste into tests/ ---")
            print(result.pytest_case())
    return bool(report.failures)


def _fleet(arguments) -> int:
    from repro.verify.fleet import run_fleet_differential

    report = run_fleet_differential(rounds=arguments.rounds)
    print(f"fleet differential: {report.summary()}")
    for failure in report.failures:
        print(f"  {failure}")
    return 0 if report.ok() else 1


def _audit() -> int:
    mismatches = run_audit_battery()
    if mismatches:
        print(f"audit: {len(mismatches)} FAILURES")
        for mismatch in mismatches:
            print(f"  {mismatch}")
        return 1
    print("audit: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
