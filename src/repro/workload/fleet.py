"""Fleet replay with feedback-driven re-optimization.

:class:`FleetRunner` drives a list of statements through a
:class:`~repro.service.QueryService` and closes the workload loop:

1. **replay** — run every statement, collecting rows, latency,
   simulated I/O, the plan fingerprint, and per-node estimate-vs-actual
   observations;
2. **correct** — distill the observations into
   :class:`~repro.catalog.StatsCorrections` and apply them through
   ``Catalog.apply_feedback`` (which bumps ``stats_version``, so the
   plan cache's invalidation machinery does the re-planning);
3. **re-replay** — the same fleet now plans against corrected
   statistics;
4. **gate** — every statement whose plan changed *and* got slower
   keeps its incumbent (re-pinned under the new ``stats_version``) and
   lands in the service's regression log; regressed statements are
   re-run so the final round reflects what the cache will serve.

Correctness invariant: feedback changes *estimates*, never results —
every round's rows must be byte-identical (``FeedbackReport.mismatches``
checks; the verify layer runs it under both engines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.catalog import StatsCorrections
from repro.cost.model import CostModel
from repro.executor.feedback import NodeObservation
from repro.optimizer import OptimizerConfig, Plan
from repro.service import PlanRegression, QueryService
from repro.storage import Database
from repro.workload.feedback import derive_corrections
from repro.workload.gate import GateDecision, RegressionGate
from repro.workload.qerror import QErrorSummary, summarize


@dataclass(frozen=True)
class FleetStatement:
    """One statement of the fleet (``name`` labels its class)."""

    name: str
    sql: str


@dataclass
class StatementRun:
    """One statement's execution within a round."""

    statement: FleetStatement
    rows: List[tuple]
    elapsed_ms: float
    simulated_io_ms: float
    plan_fingerprint: str
    plan: Plan
    observations: List[NodeObservation] = field(default_factory=list)
    cache_status: Optional[str] = None


@dataclass
class RoundResult:
    """One full pass over the fleet."""

    runs: List[StatementRun]

    def observations(self) -> List[NodeObservation]:
        collected: List[NodeObservation] = []
        for run in self.runs:
            collected.extend(run.observations)
        return collected

    def qerror(self) -> QErrorSummary:
        return summarize(self.observations())

    def total_simulated_io_ms(self) -> float:
        return sum(run.simulated_io_ms for run in self.runs)


@dataclass
class FeedbackReport:
    """Everything one feedback round produced."""

    baseline: RoundResult
    reoptimized: RoundResult
    final: RoundResult
    corrections: StatsCorrections
    applied: int
    decisions: List[GateDecision]

    @property
    def regressions(self) -> List[GateDecision]:
        return [d for d in self.decisions if d.regressed]

    @property
    def plan_changes(self) -> List[GateDecision]:
        return [d for d in self.decisions if d.plan_changed]

    def mismatches(self) -> List[str]:
        """Statements whose rows differ across rounds (must be empty)."""
        bad: List[str] = []
        for before, middle, after in zip(
            self.baseline.runs, self.reoptimized.runs, self.final.runs
        ):
            if before.rows != middle.rows or before.rows != after.rows:
                bad.append(before.statement.name)
        return bad


class FleetRunner:
    """Replay a statement fleet and run the feedback loop over it."""

    def __init__(
        self,
        database: Database,
        fleet: List[FleetStatement],
        config: Optional[OptimizerConfig] = None,
        cost_model: Optional[CostModel] = None,
        mode: Optional[str] = None,
        workers: int = 2,
        cache_size: int = 256,
        gate: Optional[RegressionGate] = None,
    ):
        self.database = database
        self.fleet = list(fleet)
        self.gate = gate or RegressionGate()
        self.service = QueryService(
            database,
            config=config,
            cost_model=cost_model,
            workers=workers,
            cache_size=cache_size,
            mode=mode,
            queue_depth=max(64, len(self.fleet)),
            collect_observations=True,
        )

    # ------------------------------------------------------------------

    def _run_statement(self, statement: FleetStatement) -> StatementRun:
        result = self.service.query(statement.sql)
        return StatementRun(
            statement=statement,
            rows=result.rows,
            elapsed_ms=result.elapsed_seconds * 1000.0,
            simulated_io_ms=result.simulated_io_ms,
            plan_fingerprint=result.plan.fingerprint(),
            plan=result.plan,
            observations=list(result.observations or ()),
            cache_status=result.cache_status,
        )

    def replay(self) -> RoundResult:
        """One sequential pass over the whole fleet."""
        return RoundResult([self._run_statement(s) for s in self.fleet])

    def run_feedback_round(
        self,
        corrections: Optional[StatsCorrections] = None,
        min_q_error: float = 1.5,
    ) -> FeedbackReport:
        """Replay, correct, re-plan, gate — one turn of the loop.

        ``corrections`` overrides the derived batch (tests use this to
        inject deliberately bad feedback and watch the gate hold).
        """
        baseline = self.replay()
        if corrections is None:
            corrections = derive_corrections(
                baseline.observations(), min_q_error=min_q_error
            )
        applied = self.database.catalog.apply_feedback(corrections)
        reoptimized = self.replay()
        decisions: List[GateDecision] = []
        final_runs: List[StatementRun] = []
        for before, after in zip(baseline.runs, reoptimized.runs):
            decision = self.gate.evaluate(before, after)
            decisions.append(decision)
            if decision.regressed:
                # Keep the incumbent: re-key it under the corrected
                # stats_version and log the rejection, then re-run so
                # the final round shows what the cache now serves.
                self.service.pin_plan(before.statement.sql, before.plan)
                self.service.note_plan_regression(
                    PlanRegression(
                        statement=before.statement.name,
                        incumbent_fingerprint=before.plan_fingerprint,
                        challenger_fingerprint=after.plan_fingerprint,
                        incumbent_ms=before.elapsed_ms,
                        challenger_ms=after.elapsed_ms,
                        incumbent_sim_io_ms=before.simulated_io_ms,
                        challenger_sim_io_ms=after.simulated_io_ms,
                        action="incumbent-retained",
                    )
                )
                final_runs.append(self._run_statement(before.statement))
            else:
                final_runs.append(after)
        return FeedbackReport(
            baseline=baseline,
            reoptimized=reoptimized,
            final=RoundResult(final_runs),
            corrections=corrections,
            applied=applied,
            decisions=decisions,
        )

    # ------------------------------------------------------------------

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "FleetRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
