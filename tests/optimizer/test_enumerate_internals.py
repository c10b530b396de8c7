"""Join-enumeration internals: pruning, equi-pair handling, helpers."""

import pytest

from repro import Column, Database, Index, OptimizerConfig, TableSchema
from repro.core import OrderContext, OrderSpec
from repro.core.general import GeneralOrderSpec
from repro.core.ordering import desc
from repro.cost.model import Cost, CostModel
from repro.expr import Comparison, ComparisonOp, RowSchema, col, lit
from repro.expr.nodes import BooleanExpr, BooleanOp
from repro.optimizer.enumerate import (
    Candidate,
    _built,
    _dedupe_pairs,
    _equi_pairs,
    _join_methods,
    _prune,
    enumerate_joins,
)
from repro.optimizer.helpers import (
    general_satisfies,
    general_sort_target,
    order_satisfies,
    sort_columns_for,
)
from repro.optimizer.plan import OpKind, PlanNode
from repro.optimizer.planner import PlannerContext, access_paths
from repro.properties.stream import KeyProperty, StreamProperties
from repro.qgm.block import QueryBlock
from repro.qgm.boxes import SelectItem
from repro.sqltypes import INTEGER

AX, AY, BX, BY = col("a", "x"), col("a", "y"), col("b", "x"), col("b", "y")


def EQ(left, right):
    return Comparison(ComparisonOp.EQ, left, right)


class TestEquiPairs:
    def test_orientation(self):
        pairs = _equi_pairs(
            [EQ(BX, AX)], frozenset([AX, AY]), frozenset([BX, BY])
        )
        assert pairs == [(AX, BX, EQ(BX, AX))]

    def test_non_equi_ignored(self):
        pred = Comparison(ComparisonOp.LT, AX, BX)
        assert _equi_pairs([pred], frozenset([AX]), frozenset([BX])) == []

    def test_same_side_equality_ignored(self):
        assert (
            _equi_pairs([EQ(AX, AY)], frozenset([AX, AY]), frozenset([BX]))
            == []
        )

    def test_dedupe_keeps_first_per_column(self):
        pairs = [
            (AX, BX, EQ(AX, BX)),
            (AY, BX, EQ(AY, BX)),  # same inner column
            (AX, BY, EQ(AX, BY)),  # same outer column
        ]
        unique = _dedupe_pairs(pairs)
        assert unique == [pairs[0]]


def _fake_plan(cost_ms, order=OrderSpec(), keys=()):
    properties = StreamProperties(
        schema=RowSchema([AX, AY]),
        order=order,
        key_property=KeyProperty(keys),
        cardinality=10.0,
    )
    return PlanNode(
        OpKind.TABLE_SCAN,
        (),
        properties,
        Cost(cpu_ms=cost_ms),
        {"table": "a", "alias": "a"},
    )


def _planner(db=None):
    database = db or Database()
    if not database.catalog.has_table("a"):
        database.create_table(
            TableSchema(
                "a",
                [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
                primary_key=("x",),
            ),
            rows=[(i, i % 3) for i in range(10)],
        )
    block = QueryBlock(
        tables={"a": "a"},
        predicate=None,
        select_items=[SelectItem(AX, "x")],
    )
    return PlannerContext.build(database, OptimizerConfig(), block)


def _lazy(cost_ms, order, built, keys=()):
    """A priced candidate whose build is recorded in ``built``."""
    plan = _fake_plan(cost_ms, order, keys)

    def build():
        built.append(plan)
        return plan

    return Candidate(plan.cost, order, build)


class TestPrune:
    def test_cheaper_unordered_dominates_unordered(self):
        planner = _planner()
        cheap = _fake_plan(1.0)
        pricey = _fake_plan(5.0)
        survivors = _prune(planner, _built([pricey, cheap]))
        assert survivors == [cheap]

    def test_ordered_plan_survives_cheaper_unordered(self):
        planner = _planner()
        cheap = _fake_plan(1.0)
        ordered = _fake_plan(5.0, OrderSpec.of(AX))
        survivors = _prune(planner, _built([ordered, cheap]))
        assert set(map(id, survivors)) == {id(cheap), id(ordered)}

    def test_ordered_dominates_weaker_order(self):
        planner = _planner()
        strong = _fake_plan(1.0, OrderSpec.of(AX, AY))
        weak = _fake_plan(2.0, OrderSpec.of(AX))
        survivors = _prune(planner, _built([weak, strong]))
        assert survivors == [strong]

    def test_result_sorted_by_cost(self):
        planner = _planner()
        plans = [
            _fake_plan(3.0, OrderSpec.of(AY)),
            _fake_plan(1.0),
            _fake_plan(2.0, OrderSpec.of(AX)),
        ]
        survivors = _prune(planner, _built(plans))
        costs = [plan.cost.total_ms for plan in survivors]
        assert costs == sorted(costs)

    def test_literal_prefix_of_a_cheaper_survivor_is_never_built(self):
        planner = _planner()
        built = []
        candidates = [
            _lazy(3.0, OrderSpec.of(AX), built),  # prefix of the survivor
            _lazy(2.0, OrderSpec(), built),  # the empty order too
            _lazy(1.0, OrderSpec.of(AX, AY), built),
        ]
        survivors = _prune(planner, candidates)
        assert [plan.order for plan in built] == [OrderSpec.of(AX, AY)]
        assert survivors == built
        assert planner.stats.plans_pruned == 2
        assert planner.stats.plans_built == 1

    def test_other_orders_are_built_and_asked_test_order(self):
        # Neither (y) nor (x, y) is a literal prefix of (x), so both are
        # built. a.x is a key: under it (x, y) reduces to (x) and is
        # dominated; nothing makes (y) redundant, so it survives.
        planner = _planner()
        built = []
        candidates = [
            _lazy(1.0, OrderSpec.of(AX), built, keys=[[AX]]),
            _lazy(2.0, OrderSpec.of(AY), built, keys=[[AX]]),
            _lazy(3.0, OrderSpec.of(AX, AY), built, keys=[[AX]]),
        ]
        survivors = _prune(planner, candidates)
        assert len(built) == 3
        assert [plan.order for plan in survivors] == [
            OrderSpec.of(AX), OrderSpec.of(AY)
        ]
        assert planner.stats.plans_pruned == 1

    def test_equal_costs_keep_their_list_position(self):
        planner = _planner()
        first, second = _fake_plan(1.0), _fake_plan(1.0)
        assert _prune(planner, _built([first, second])) == [first]
        assert _prune(planner, _built([second, first]))[0] is second

    def test_candidates_past_the_survivor_cap_are_never_built(self):
        planner = _planner()
        built = []
        columns = [col("a", f"c{i}") for i in range(14)]
        candidates = [
            _lazy(float(i), OrderSpec.of(column), built)
            for i, column in enumerate(columns)
        ]
        survivors = _prune(planner, candidates)
        assert len(survivors) == len(built) == 12
        assert planner.stats.plans_pruned == 0


def _join_planner():
    """A planner for ``a JOIN b ON a.x = b.x`` (b.x indexed)."""
    database = Database()
    for name in ("a", "b"):
        database.create_table(
            TableSchema(
                name,
                [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
                primary_key=("x",),
            ),
            rows=[(i, i % 3) for i in range(10)],
        )
    block = QueryBlock(
        tables={"a": "a", "b": "b"},
        predicate=EQ(AX, BX),
        select_items=[SelectItem(AX, "x")],
    )
    return PlannerContext.build(database, OptimizerConfig(), block)


def _inner_plan(cost_ms, order=OrderSpec(), constants=frozenset()):
    properties = StreamProperties(
        schema=RowSchema([BX, BY]),
        order=order,
        key_property=KeyProperty([[BX]]),
        constants=constants,
        cardinality=10.0,
    )
    return PlanNode(
        OpKind.TABLE_SCAN, (), properties, Cost(cpu_ms=cost_ms),
        {"table": "b", "alias": "b"},
    )


def _priced_inners(candidates):
    """Every inner plan some candidate was priced with (below its sort)."""
    found = []
    for candidate in candidates:
        node = candidate.node()
        if node.kind is OpKind.NLJ_INDEX:
            continue
        inner = node.children[1]
        while inner.kind in (OpKind.SORT, OpKind.PARTIAL_SORT):
            inner = inner.children[0]
        found.append(inner)
    return found


class TestInnerClasses:
    def _methods(self, planner, inner_plans):
        outer = access_paths(planner, "a")[0]
        return _join_methods(
            planner, frozenset(["a"]), [outer], "b", inner_plans
        )

    def test_the_dearer_of_one_class_is_never_priced(self):
        # Same properties but order: the ordered plan costs more, and a
        # sort on b.x makes the cheaper one the cheaper merge input too.
        planner = _join_planner()
        cheap = _inner_plan(1.0)
        dear = _inner_plan(50.0, OrderSpec.of(BY))
        priced = _priced_inners(self._methods(planner, [cheap, dear]))
        assert len(priced) == 3  # nested loops, hash, merge
        assert all(plan is cheap for plan in priced)

    def test_the_cheaper_merge_input_of_a_class_is_priced(self):
        # Already ordered on the merge key, the dearer plan needs no
        # sort: merge join takes it, the other methods the cheap one.
        planner = _join_planner()
        cheap = _inner_plan(1.0)
        ordered = _inner_plan(1.01, OrderSpec.of(BX))  # sorting costs more
        candidates = self._methods(planner, [cheap, ordered])
        kinds = {
            candidate.node().kind: inner
            for candidate, inner in zip(candidates, _priced_inners(candidates))
        }
        assert kinds[OpKind.MERGE_JOIN] is ordered
        assert kinds[OpKind.NLJ] is kinds[OpKind.HASH_JOIN] is cheap

    def test_inner_plans_whose_contexts_differ_are_both_priced(self):
        planner = _join_planner()
        cheap = _inner_plan(1.0)
        dear = _inner_plan(50.0, OrderSpec.of(BY), constants=frozenset([BY]))
        priced = _priced_inners(self._methods(planner, [cheap, dear]))
        assert sum(plan is cheap for plan in priced) == 3
        assert sum(plan is dear for plan in priced) == 3


class TestPricesAreScopedToOneCall:
    def test_equal_row_counts_with_other_predicates_price_afresh(self):
        # b joins a on a.x = b.x and c on c.y = b.y. Both outers have 10
        # rows and both joins 10, so only the predicates tell the two
        # calls apart: a price cached beyond one call would hand the
        # second the first one's predicate and keys.
        database = Database()
        for name in ("a", "b", "c"):
            database.create_table(
                TableSchema(
                    name,
                    [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
                    primary_key=("x",),
                ),
                rows=[(i, i) for i in range(10)],
            )
        CY = col("c", "y")
        block = QueryBlock(
            tables={"a": "a", "b": "b", "c": "c"},
            predicate=BooleanExpr(BooleanOp.AND, (EQ(AX, BX), EQ(CY, BY))),
            select_items=[SelectItem(AX, "x")],
        )
        planner = PlannerContext.build(database, OptimizerConfig(), block)
        inner_plans = access_paths(planner, "b")
        for outer_alias, predicate, outer_key, inner_key in (
            ("a", EQ(AX, BX), AX, BX),
            ("c", EQ(CY, BY), CY, BY),
        ):
            outer = access_paths(planner, outer_alias)[0]
            assert outer.properties.cardinality == 10.0
            joined = frozenset([outer_alias, "b"])
            assert planner.subset_cardinality(joined) == 10.0
            nodes = [
                candidate.node()
                for candidate in _join_methods(
                    planner, frozenset([outer_alias]), [outer], "b",
                    inner_plans,
                )
            ]
            kinds = {node.kind: node for node in nodes}
            assert kinds[OpKind.NLJ].args["predicate"] == predicate
            hash_join = kinds[OpKind.HASH_JOIN].args
            assert hash_join["outer_keys"] == [outer_key]
            assert hash_join["inner_keys"] == [inner_key]


class TestCartesianFallback:
    def test_disconnected_tables_still_plan(self):
        database = Database()
        for name in ("p", "q"):
            database.create_table(
                TableSchema(
                    name,
                    [Column("v", INTEGER, nullable=False)],
                    primary_key=("v",),
                ),
                rows=[(i,) for i in range(5)],
            )
        block = QueryBlock(
            tables={"p": "p", "q": "q"},
            predicate=None,
            select_items=[
                SelectItem(col("p", "v"), "pv"),
                SelectItem(col("q", "v"), "qv"),
            ],
        )
        planner = PlannerContext.build(database, OptimizerConfig(), block)
        plans = enumerate_joins(planner)
        assert plans
        assert plans[0].properties.cardinality == 25.0


class TestHelpers:
    def test_order_satisfies_gated_by_master_switch(self):
        context = OrderContext.empty().with_constant(AX)
        interesting = OrderSpec.of(AX, AY)
        order_property = OrderSpec.of(AY)
        assert order_satisfies(
            OptimizerConfig(), interesting, order_property, context
        )
        assert not order_satisfies(
            OptimizerConfig.disabled(), interesting, order_property, context
        )

    def test_sort_columns_reduced_only_when_enabled(self):
        context = OrderContext.empty().with_constant(AX)
        interesting = OrderSpec.of(AX, AY)
        assert sort_columns_for(
            OptimizerConfig(), interesting, context
        ) == OrderSpec.of(AY)
        assert sort_columns_for(
            OptimizerConfig.disabled(), interesting, context
        ) == interesting

    def test_general_satisfies_rigid_fallback(self):
        general = GeneralOrderSpec.from_group_by([AY, AX])
        context = OrderContext.empty()
        permuted = OrderSpec.of(AY, AX)
        assert general_satisfies(OptimizerConfig(), general, permuted, context)
        # Rigid mode demands the lexicographic rendering of the free
        # segment, so the permuted property may fail.
        rigid_target = general_sort_target(
            OptimizerConfig.disabled(), general, context
        )
        assert rigid_target == OrderSpec.of(AX, AY)
