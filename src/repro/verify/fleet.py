"""Fleet-replay differential: feedback must never change results.

The workload loop rewrites *estimates* — selectivity overrides, NDV
corrections, re-planned and re-pinned cache entries. None of that may
change a single result byte. This harness runs a full feedback round
over the skewed proving-ground fleet under each executor engine and
checks two invariants:

* **within-engine**: every statement's rows are identical across the
  baseline, re-optimized, and gated-final replays
  (``FeedbackReport.mismatches``);
* **across engines**: the two engines' final rows agree statement by
  statement — the engine contract (vector / interpreted byte
  identical) holds with feedback in the loop.

Each engine gets a freshly built database (its own catalog identity),
so one engine's overrides and pinned plans cannot leak into another's
cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.executor.context import MODE_INTERPRETED, MODE_VECTOR
from repro.workload import (
    FleetRunner,
    build_skewed_database,
    build_skewed_fleet,
)

ENGINES = (MODE_VECTOR, MODE_INTERPRETED)


@dataclass
class FleetDifferentialReport:
    """Outcome of the two-engine fleet differential."""

    statements: int = 0
    engines: Tuple[str, ...] = ENGINES
    failures: List[str] = field(default_factory=list)
    qerror_before: Dict[str, float] = field(default_factory=dict)
    qerror_after: Dict[str, float] = field(default_factory=dict)
    regressions_admitted: int = 0

    def ok(self) -> bool:
        return not self.failures and self.regressions_admitted == 0

    def summary(self) -> str:
        if self.ok():
            spans = ", ".join(
                f"{engine} {self.qerror_before[engine]:.2f}->"
                f"{self.qerror_after[engine]:.2f}"
                for engine in self.engines
            )
            return (
                f"ok: {self.statements} statements x "
                f"{len(self.engines)} engines byte-identical "
                f"pre/post feedback (q-error geomean {spans})"
            )
        return f"{len(self.failures)} FAILURES"


def run_fleet_differential(
    rounds: int = 4,
    seed: int = 7,
    engines: Tuple[str, ...] = ENGINES,
) -> FleetDifferentialReport:
    """One feedback round per engine; check both invariants."""
    fleet = build_skewed_fleet(rounds=rounds)
    report = FleetDifferentialReport(
        statements=len(fleet), engines=tuple(engines)
    )
    final_rows: Dict[str, List[List[tuple]]] = {}
    for engine in engines:
        database = build_skewed_database(seed=seed)
        with FleetRunner(database, fleet, mode=engine) as runner:
            round_report = runner.run_feedback_round()
            for name in round_report.mismatches():
                report.failures.append(
                    f"[{engine}] rows changed across feedback round: {name}"
                )
            report.qerror_before[engine] = round_report.baseline.qerror().geomean
            report.qerror_after[engine] = round_report.final.qerror().geomean
            # The gate may reject challengers (incumbent-retained is
            # fine); an *admitted* regression would be a gate bug.
            for record in runner.service.plan_regressions():
                if record.action != "incumbent-retained":
                    report.regressions_admitted += 1
                    report.failures.append(
                        f"[{engine}] regression admitted: {record.statement}"
                    )
            final_rows[engine] = [
                run.rows for run in round_report.final.runs
            ]
    reference_engine = engines[0]
    for engine in engines[1:]:
        for index, statement in enumerate(fleet):
            if final_rows[engine][index] != final_rows[reference_engine][index]:
                report.failures.append(
                    f"[{engine} vs {reference_engine}] rows differ: "
                    f"{statement.name} #{index}"
                )
    return report
