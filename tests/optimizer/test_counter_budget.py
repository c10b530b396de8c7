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
from repro.optimizer import enumerate as enumerate_module
from repro.properties.propagate import clear_propagation_memo
from repro.tpcd import QUERY_3

from tests.optimizer.perf_statements import seed1_statements

# Measured at SF 0.002 with cost-first enumeration and one inner plan
# per order-blind class (the largest reading over hash seeds):
#   closure.builds 102, closure.iterations 431, reduce.calls 234,
#   test.calls 136, cover.calls 33, context.builds 89,
#   propagate.join_calls 36, stream.context_calls 180.
BUDGETS = {
    "closure.builds": 200,
    "closure.iterations": 860,
    "reduce.calls": 470,
    "test.calls": 270,
    "cover.calls": 70,
    "context.builds": 180,
    "propagate.join_calls": 75,
    "stream.context_calls": 360,
}
# The seed-1 chain5 text: propagate.join_calls 379, context.builds 620.
CHAIN5_BUDGETS = {"propagate.join_calls": 760, "context.builds": 1240}
# Candidates priced and candidates built per statement. Both count work,
# not the search space: that is what ``_prune`` keeps, and
# ``plan_identity.json`` pins it. A change that prices or builds less
# for the same survivors re-measures these on purpose.
PLANS_GENERATED = {"chain5": 1313, "star": 430}
PLANS_BUILT = {"chain5": 477, "star": 180}
# Merge-join key sequences priced per statement: one per (outer plan,
# inner class, key sequence), each asking ``_ensure_order(...,
# "merge-join")`` of its outer plan once. A loop over every (outer plan,
# inner plan) pair walks 1 120 (chain5) and 349 (star) sequences for
# the same 322 and 103 outer sorts.
MERGE_SEQUENCES = {"chain5": 322, "star": 103}


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
def test_adhoc_joins_price_and_build_exactly_the_pinned_counts(tpcd_db, cls):
    sql = seed1_statements(tpcd_db, "adhoc_plan")[cls]
    counters, stats = _planned(tpcd_db, sql, OptimizerConfig())
    assert stats.plans_generated == PLANS_GENERATED[cls]
    assert stats.plans_built == PLANS_BUILT[cls]
    if cls == "chain5":
        over = _over(counters, CHAIN5_BUDGETS)
        assert not over, f"counter budgets exceeded (actual, budget): {over}"


def _merge_work(database, sql, monkeypatch):
    """(key sequences merge join walked, merge-join ``_ensure_order``
    calls on an outer plan) over one cold planning run."""
    ensure_order = enumerate_module._ensure_order
    aligned_pairs = enumerate_module._segment_aligned_pairs
    join_methods = enumerate_module._join_methods
    work = {"sequences": 0, "outer_sorts": 0}
    outer_ids = set()

    def counting_join_methods(planner, outer_set, outer_plans, *rest):
        outer_ids.clear()
        outer_ids.update(map(id, outer_plans))
        return join_methods(planner, outer_set, outer_plans, *rest)

    def counting_aligned_pairs(outer_plan, pairs):
        aligned = aligned_pairs(outer_plan, pairs)
        work["sequences"] += 1 if aligned is None else 2
        return aligned

    def counting_ensure_order(planner, plan, order, reason):
        if reason == "merge-join" and id(plan) in outer_ids:
            work["outer_sorts"] += 1
        return ensure_order(planner, plan, order, reason)

    with monkeypatch.context() as patch:
        patch.setattr(enumerate_module, "_join_methods", counting_join_methods)
        patch.setattr(
            enumerate_module, "_segment_aligned_pairs", counting_aligned_pairs
        )
        patch.setattr(enumerate_module, "_ensure_order", counting_ensure_order)
        _planned(database, sql, OptimizerConfig())
    return work


@pytest.mark.parametrize("cls", sorted(MERGE_SEQUENCES))
def test_merge_joins_are_priced_once_per_outer_plan_class_and_sequence(
    tpcd_db, cls, monkeypatch
):
    sql = seed1_statements(tpcd_db, "adhoc_plan")[cls]
    work = _merge_work(tpcd_db, sql, monkeypatch)
    assert work["sequences"] == MERGE_SEQUENCES[cls]
    assert work["outer_sorts"] == work["sequences"]


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
