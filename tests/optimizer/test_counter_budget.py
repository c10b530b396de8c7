"""Counter-budget regression: planning work stays bounded.

The memoized algebra removed quadratic closure recomputation from the
planner's inner loop, and join enumeration prices a candidate before it
builds it. This test pins the amount of work planning may perform —
closure fixpoint iterations, algebra front-door calls, context builds,
join propagations — to fixed budgets (measured values with roughly 2x
headroom) on TPC-D Q3 and on the ``adhoc_plan`` five-table chain (the
statement that sets that workload's p95), so a regression that silently
reintroduces repeated recomputation, or builds what it could have
pruned unbuilt, fails loudly instead of just showing up as slower
benchmarks.

Budgets were measured at SF 0.002 (the session fixture scale); planning
work depends on catalog shape and statistics, not row count, so they are
stable across small scale factors.
"""

import pytest

from repro.core import clear_memos, instrument
from repro.optimizer import Optimizer, OptimizerConfig
from repro.properties.propagate import clear_propagation_memo
from repro.tpcd import QUERY_3

from tests.optimizer.perf_statements import seed1_statements

# Measured at SF 0.002 with cost-first enumeration:
#   closure.builds 105, closure.iterations 432, reduce.calls 232,
#   test.calls 176, cover.calls 98, context.builds 95,
#   propagate.join_calls 73, stream.context_calls 257.
BUDGETS = {
    "closure.builds": 210,
    "closure.iterations": 1100,
    "reduce.calls": 750,
    "test.calls": 360,
    "cover.calls": 220,
    "context.builds": 200,
    "propagate.join_calls": 150,
    "stream.context_calls": 520,
}
# The seed-1 chain5 text: propagate.join_calls 794, context.builds 738.
CHAIN5_BUDGETS = {"propagate.join_calls": 1600, "context.builds": 1500}
# Candidates priced per statement: the search space itself, which no
# planning-speed change may move.
PLANS_GENERATED = {"chain5": 3748, "star": 1171}


def _planned(database, sql, config):
    """(counter snapshot, PlannerStats) of one cold planning run."""
    # Deterministic baseline: cross-run memo state changes which code
    # paths execute (a propagate_join hit skips context assembly), so
    # every cache is cleared before the measured planning run.
    clear_memos()
    clear_propagation_memo()
    instrument.reset()
    optimizer = Optimizer(database, config)
    assert optimizer.plan_sql(sql) is not None
    counters = instrument.snapshot()
    clear_memos()
    clear_propagation_memo()
    return counters, optimizer.last_stats


def _over(counters, budgets):
    return {
        name: (counters.get(name, 0), budget)
        for name, budget in budgets.items()
        if counters.get(name, 0) > budget
    }


@pytest.fixture()
def q3_counters(tpcd_db):
    return _planned(tpcd_db, QUERY_3, OptimizerConfig.db2_faithful(True))[0]


def test_q3_planning_stays_within_counter_budgets(q3_counters):
    over = _over(q3_counters, BUDGETS)
    assert not over, f"counter budgets exceeded (actual, budget): {over}"


@pytest.mark.parametrize("cls", sorted(PLANS_GENERATED))
def test_adhoc_joins_build_under_a_third_of_what_they_price(tpcd_db, cls):
    sql = seed1_statements(tpcd_db, "adhoc_plan")[cls]
    counters, stats = _planned(tpcd_db, sql, OptimizerConfig())
    assert stats.plans_generated == PLANS_GENERATED[cls]
    assert 0 < stats.plans_built <= stats.plans_generated / 3
    if cls == "chain5":
        over = _over(counters, CHAIN5_BUDGETS)
        assert not over, f"counter budgets exceeded (actual, budget): {over}"


def test_q3_planning_actually_exercises_the_algebra(q3_counters):
    # Guards the budget test against vacuous passes: if instrumentation
    # or the planning entry point stops counting, budgets trivially hold.
    assert q3_counters.get("reduce.calls", 0) > 50
    assert q3_counters.get("closure.builds", 0) > 20
    assert q3_counters.get("propagate.join_calls", 0) > 20


def test_q3_planning_memo_hit_rate_above_half(q3_counters):
    calls = sum(
        q3_counters.get(f"{subsystem}.calls", 0)
        for subsystem in ("reduce", "test", "cover", "homogenize")
    )
    hits = sum(
        q3_counters.get(f"{subsystem}.memo_hits", 0)
        for subsystem in ("reduce", "test", "cover", "homogenize")
    )
    assert calls > 0
    assert hits / calls > 0.5
