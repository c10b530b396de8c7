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

``_join_methods`` also walks inner classes rather than inner plans and
shares prices across the outer plans of one call. Its candidate-list
oracle, ``per_inner_plan_join_methods``, is the loop over every (outer
plan, inner plan) pair with nothing shared between outer plans; every
call must return the same candidates in the same positions, so cost
ties break the same way.
"""

import pytest

from repro.api import plan_query
from repro.core.ordering import OrderSpec
from repro.expr.nodes import ColumnRef
from repro.optimizer import OptimizerConfig
from repro.optimizer import enumerate as enumerate_module
from repro.optimizer.enumerate import (
    Candidate,
    _and_all,
    _applicable_join_predicates,
    _build_join,
    _covered_merge_sorts,
    _dedupe_pairs,
    _ensure_order,
    _equi_pairs,
    _index_probe_joins,
    _order_blind_joins,
    _order_blind_key,
    _segment_aligned_pairs,
)
from repro.optimizer.helpers import order_satisfies
from repro.optimizer.plan import OpKind
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


def per_inner_plan_merge_joins(
    planner, outer_plan, inner_plan, inner, output_rows
):
    """Merge joins of one (outer plan, inner plan) pair: for each key
    sequence, none unless ``inner_plan`` is the member of its class
    cheapest once sorted for it, the first on ties."""
    plans, pairs, residual, predicates = inner
    sequences = [pairs]
    if planner.config.effective("enable_partial_sort"):
        aligned = _segment_aligned_pairs(outer_plan, pairs)
        if aligned is not None:
            sequences.append(aligned)
    results = []
    for sequence in sequences:
        inner_keys = [i for _o, i, _p in sequence]
        required = OrderSpec.of(*inner_keys)
        sorted_plans = [
            (_ensure_order(planner, plan, required, "merge-join"), plan)
            for plan in plans
        ]
        sorted_inner, member = min(
            (entry for entry in sorted_plans if entry[0] is not None),
            key=lambda entry: entry[0].cost.total_ms,
            default=(None, None),
        )
        if member is not inner_plan:
            continue
        outer_keys = [o for o, _i, _p in sequence]
        outer_required = OrderSpec.of(*outer_keys)
        primary = _ensure_order(
            planner, outer_plan, outer_required, "merge-join"
        )
        if primary is None:
            continue
        variants = [primary]
        if planner.config.effective("enable_cover") and (
            primary is not outer_plan
        ):
            variants.extend(
                _covered_merge_sorts(planner, outer_plan, outer_required)
            )
        for sorted_outer in variants:
            cost = (
                sorted_outer.cost
                + sorted_inner.cost
                + planner.cost_model.merge_join(
                    sorted_outer.properties.cardinality,
                    sorted_inner.properties.cardinality,
                    output_rows,
                )
            )
            args = {
                "outer_keys": outer_keys,
                "inner_keys": inner_keys,
                "residual": _and_all(residual),
            }
            results.append(
                Candidate(
                    cost, sorted_outer.order, _build_join,
                    (OpKind.MERGE_JOIN, (sorted_outer, sorted_inner),
                     sorted_inner.properties, predicates, output_rows, cost,
                     args),
                )
            )
    return results


def per_inner_plan_join_methods(
    planner, outer_set, outer_plans, inner_alias, inner_plans
):
    """``_join_methods``' candidate list from a loop over every (outer
    plan, inner plan) pair, pricing each pair afresh: order-blind joins
    with the first plan of each class, then that pair's merge joins; the
    index probes after each outer plan's pairs."""
    predicates = _applicable_join_predicates(planner, outer_set, inner_alias)
    output_rows = planner.subset_cardinality(outer_set | {inner_alias})
    outer_columns = frozenset(outer_plans[0].properties.schema.columns)
    members = {}
    for plan in inner_plans:
        members.setdefault(_order_blind_key(plan), []).append(plan)
    class_of = {}
    for plans in members.values():
        pairs = _dedupe_pairs(
            _equi_pairs(
                predicates,
                outer_columns,
                frozenset(plans[0].properties.schema.columns),
            )
        )
        covered = {p for _o, _i, p in pairs}
        residual = [p for p in predicates if p not in covered]
        for plan in plans:
            class_of[id(plan)] = (
                plans, pairs, residual, [p for _o, _i, p in pairs] + residual
            )
    probe_pairs = []
    if planner.config.enable_index_nlj and not planner.is_derived(inner_alias):
        base = frozenset(
            ColumnRef(inner_alias, column.name)
            for column in planner.table_for(inner_alias).columns
        )
        probe_pairs = _equi_pairs(predicates, outer_columns, base)

    results = []
    for outer_plan in outer_plans:
        for inner_plan in inner_plans:
            inner = class_of[id(inner_plan)]
            plans, pairs, _residual, _described = inner
            if inner_plan is plans[0]:
                results.extend(
                    _order_blind_joins(
                        planner, outer_plan, inner,
                        inner_plan.properties.cardinality, output_rows,
                        predicates, {},
                    )
                )
            if pairs:
                results.extend(
                    per_inner_plan_merge_joins(
                        planner, outer_plan, inner_plan, inner, output_rows
                    )
                )
        probes = _index_probe_joins(
            planner, inner_alias, probe_pairs, predicates,
            planner.local_predicates.get(inner_alias, []),
        )
        results.extend(probes(outer_plan, output_rows))
    return results


def candidates_match(got, want):
    """Position by position: kind, exact cost, order, built explain."""
    assert len(got) == len(want)
    for position, (candidate, expected) in enumerate(zip(got, want)):
        node, expected_node = candidate.node(), expected.node()
        where = f"candidate {position}"
        assert node.kind is expected_node.kind, where
        assert candidate.cost.total_ms == expected.cost.total_ms, where
        assert candidate.order == expected.order, where
        assert node.explain(show_order=True, show_cost=True) == (
            expected_node.explain(show_order=True, show_cost=True)
        ), where


def assert_candidate_lists_match_the_oracle(
    database, statements, config, monkeypatch
):
    join_methods = enumerate_module._join_methods
    seen = {"calls": 0, "merge_joins": 0}

    def checked_join_methods(planner, *arguments):
        got = join_methods(planner, *arguments)
        candidates_match(got, per_inner_plan_join_methods(planner, *arguments))
        seen["calls"] += 1
        seen["merge_joins"] += sum(
            c.node().kind is OpKind.MERGE_JOIN for c in got
        )
        return got

    with monkeypatch.context() as patch:
        patch.setattr(enumerate_module, "_join_methods", checked_join_methods)
        for sql in statements:
            plan_query(database, sql, config=config)
    return seen


@pytest.mark.parametrize("config_name", sorted(tier1_matrix()))
def test_candidate_lists_match_the_per_inner_plan_oracle(
    corpus, config_name, monkeypatch
):
    database, statements = corpus
    seen = assert_candidate_lists_match_the_oracle(
        database, statements, tier1_matrix()[config_name], monkeypatch
    )
    assert seen["calls"] >= QUERIES


def test_candidate_lists_match_the_oracle_on_chain5_and_star(
    tpcd_db, monkeypatch
):
    texts = seed1_statements(tpcd_db, "adhoc_plan")
    seen = assert_candidate_lists_match_the_oracle(
        tpcd_db, [texts["chain5"], texts["star"]], OptimizerConfig(),
        monkeypatch,
    )
    # Not vacuous: merge joins were among the candidates compared.
    assert seen["merge_joins"] > 0
