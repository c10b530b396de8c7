"""Differential tests: the planner's two unbuilt drops ≡ their oracles.

``enumerate._prune`` drops a candidate unbuilt when its order is a
literal prefix of a cheaper survivor's, and builds the rest. The oracle
below is the pruning rule with no shortcut — build every candidate, ask
Test Order (or the naive test) under each candidate's own context — kept
here the way ``repro.core.reference`` keeps the naive algebra. Every
``_prune`` call made while planning the seed-7 fuzz corpus under the
tier-1 config matrix — and the two ``adhoc_plan`` statements with the
largest search spaces — must return the very same nodes in the same
order and prune the same number.

``enumerate._join_methods`` prices nested-loop and hash join with one
inner plan per order-blind class, and merge join with the class member
cheapest once sorted. Its oracle prices every inner plan under every
method (each plan its own class); over the same statements and configs
every DP subset must keep survivors with the same explain text and cost.
"""

import pytest

from repro.api import plan_query
from repro.optimizer import OptimizerConfig
from repro.optimizer import enumerate as enumerate_module
from repro.optimizer.helpers import order_satisfies
from repro.verify.gen import QueryGenerator, generate_schema
from repro.verify.oracle import tier1_matrix

from tests.optimizer.perf_statements import seed1_statements

SEED = 7
QUERIES = 50


def eager_prune(config, plans):
    """(survivors, pruned) of the build-then-prune dominance loop."""
    survivors, pruned = [], 0
    for plan in sorted(plans, key=lambda p: p.cost.total_ms):
        context = plan.properties.context()
        dominated = False
        for kept in survivors:
            if kept.cost.total_ms <= plan.cost.total_ms and order_satisfies(
                config, plan.order, kept.order, context
            ):
                dominated = True
                break
        if dominated:
            pruned += 1
            continue
        survivors.append(plan)
        if len(survivors) >= enumerate_module._MAX_PLANS_PER_SUBSET:
            break
    return survivors, pruned


@pytest.fixture(scope="module")
def corpus():
    schema = generate_schema(SEED)
    generator = QueryGenerator(schema, SEED)
    return schema.build(), [generator.generate().sql() for _ in range(QUERIES)]


def plan_all_checked(database, statements, config, monkeypatch):
    """Plan ``statements`` with every ``_prune`` call checked against
    the oracle; returns what the calls saw."""
    lazy_prune = enumerate_module._prune
    seen = {"calls": 0, "candidates": 0, "left_unbuilt": 0}

    def checked_prune(planner, candidates):
        candidates = list(candidates)
        before = planner.stats.plans_pruned
        survivors = lazy_prune(planner, candidates)
        pruned = planner.stats.plans_pruned - before
        seen["calls"] += 1
        seen["candidates"] += len(candidates)
        seen["left_unbuilt"] += sum(c._node is None for c in candidates)
        # Only now build the rest (``node()`` keeps the survivors' nodes).
        expected, expected_pruned = eager_prune(
            planner.config, [candidate.node() for candidate in candidates]
        )
        assert len(survivors) == len(expected)
        assert all(got is want for got, want in zip(survivors, expected))
        assert pruned == expected_pruned
        return survivors

    monkeypatch.setattr(enumerate_module, "_prune", checked_prune)
    for sql in statements:
        plan_query(database, sql, config=config)
    return seen


@pytest.mark.parametrize("config_name", sorted(tier1_matrix()))
def test_prune_matches_the_eager_oracle(corpus, config_name, monkeypatch):
    database, statements = corpus
    seen = plan_all_checked(
        database, statements, tier1_matrix()[config_name], monkeypatch
    )
    assert seen["calls"] >= QUERIES
    # Not vacuous: the shortcut fired, and often.
    assert seen["left_unbuilt"] > seen["candidates"] // 4


def test_prune_matches_the_eager_oracle_on_chain5_and_star(tpcd_db, monkeypatch):
    texts = seed1_statements(tpcd_db, "adhoc_plan")
    seen = plan_all_checked(
        tpcd_db, [texts["chain5"], texts["star"]], OptimizerConfig(), monkeypatch
    )
    assert seen["left_unbuilt"] > seen["candidates"] // 2


def price_every_inner_plan(plan):
    """The inner-class oracle's key: every inner plan is its own class,
    so every join method is priced with every inner plan."""
    return id(plan)


def survivors_per_subset(database, statements, config, monkeypatch, key):
    """(explain text and cost of each ``_prune`` call's survivors, in
    call order; candidates priced) planning with inner-class ``key``."""
    lazy_prune = enumerate_module._prune
    seen = {"survivors": [], "candidates": 0}

    def recording_prune(planner, candidates):
        candidates = list(candidates)
        survivors = lazy_prune(planner, candidates)
        seen["candidates"] += len(candidates)
        seen["survivors"].append(
            [(plan.explain(show_cost=True), plan.cost) for plan in survivors]
        )
        return survivors

    with monkeypatch.context() as patch:
        patch.setattr(enumerate_module, "_prune", recording_prune)
        patch.setattr(enumerate_module, "_order_blind_key", key)
        for sql in statements:
            plan_query(database, sql, config=config)
    return seen


def assert_inner_classes_match_the_oracle(database, statements, config, monkeypatch):
    got = survivors_per_subset(
        database, statements, config, monkeypatch,
        enumerate_module._order_blind_key,
    )
    want = survivors_per_subset(
        database, statements, config, monkeypatch, price_every_inner_plan
    )
    assert len(got["survivors"]) == len(want["survivors"])
    for subset, (kept, expected) in enumerate(
        zip(got["survivors"], want["survivors"])
    ):
        assert kept == expected, f"_prune call {subset} differs"
    # Not vacuous: some inner plan went unpriced.
    assert got["candidates"] < want["candidates"]


@pytest.mark.parametrize("config_name", sorted(tier1_matrix()))
def test_inner_classes_match_the_price_every_inner_oracle(
    corpus, config_name, monkeypatch
):
    database, statements = corpus
    assert_inner_classes_match_the_oracle(
        database, statements, tier1_matrix()[config_name], monkeypatch
    )


def test_inner_classes_match_the_oracle_on_chain5_and_star(tpcd_db, monkeypatch):
    texts = seed1_statements(tpcd_db, "adhoc_plan")
    assert_inner_classes_match_the_oracle(
        tpcd_db, [texts["chain5"], texts["star"]], OptimizerConfig(), monkeypatch
    )
