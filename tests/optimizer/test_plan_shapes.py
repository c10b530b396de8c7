"""Plan-shape assertions: the behaviours the paper's sections promise."""

import pytest

from repro import Optimizer, OptimizerConfig, plan_query
from repro.expr import col
from repro.optimizer.plan import OpKind


def no_hash_config(**overrides):
    config = OptimizerConfig(enable_hash_join=False, enable_hash_group_by=False)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def disabled_no_hash():
    config = OptimizerConfig.disabled()
    config.enable_hash_join = False
    config.enable_hash_group_by = False
    return config


class TestSortAvoidance:
    def test_order_by_on_key_prefix_uses_index(self, simple_db):
        plan = plan_query(simple_db, "select x, y from a order by x")
        assert plan.sort_count() == 0
        assert plan.find_all(OpKind.INDEX_SCAN)

    def test_order_by_without_index_sorts(self, simple_db):
        plan = plan_query(simple_db, "select x, y from a order by y")
        assert plan.sort_count() == 1

    def test_constant_bound_order_column_dropped(self, simple_db):
        """§4.1: a constant-bound sort column is eliminated — any sort
        that remains is on the reduced single column."""
        plan = plan_query(
            simple_db, "select x, y from a where y = 3 order by y, x"
        )
        for sort in plan.find_all(OpKind.SORT):
            assert sort.args["order"].columns == (col("a", "x"),)

    def test_disabled_build_sorts_on_constant_column(self, simple_db):
        plan = plan_query(
            simple_db,
            "select x, y from a where y = 3 order by y, x",
            config=OptimizerConfig.disabled(),
        )
        assert plan.sort_count() == 1

    def test_minimal_sort_columns(self, simple_db):
        """§4.2: the sort uses the reduced column list."""
        plan = plan_query(
            simple_db, "select x, y from a where y = 3 order by y, x"
        )
        sorts = plan.find_all(OpKind.SORT)
        for sort in sorts:
            assert len(sort.args["order"]) <= 1

    def test_group_by_on_key_needs_no_extra_columns(self, simple_db):
        """§8: grouping on key columns plus dependents — the key alone
        suffices after reduction."""
        plan = plan_query(
            simple_db,
            "select x, y, count(*) as n from a group by x, y",
            config=no_hash_config(),
        )
        sorts = plan.find_all(OpKind.SORT)
        group_sorts = [
            sort for sort in sorts if sort.args.get("reason") in ("group by", "sort-ahead")
        ]
        for sort in group_sorts:
            assert len(sort.args["order"]) == 1  # x key determines y

    def test_equivalence_class_satisfies_order_by(self, simple_db):
        """ORDER BY b.x with a.x = b.x satisfied by a's index order."""
        plan = plan_query(
            simple_db,
            "select a.x, b.z from a, b where a.x = b.x order by b.x",
            config=no_hash_config(),
        )
        assert plan.sort_count() <= 1  # merge-join sort at most
        order_sorts = [
            s for s in plan.find_all(OpKind.SORT)
            if s.args.get("reason") == "order by"
        ]
        assert not order_sorts


class TestCoverInPlans:
    def test_one_sort_serves_group_by_and_order_by(self, warehouse_db):
        """§4.3/§6: GROUP BY + compatible ORDER BY need only one sort."""
        plan = plan_query(
            warehouse_db,
            "select attr, grp, sum(v) as total from dim, fact "
            "where dim.k = fact.k group by attr, grp order by attr",
            config=no_hash_config(),
        )
        order_sorts = [
            s for s in plan.find_all(OpKind.SORT)
            if s.args.get("reason") == "order by"
        ]
        assert not order_sorts

    def test_disabled_build_needs_separate_sorts_when_unaligned(
        self, warehouse_db
    ):
        enabled = plan_query(
            warehouse_db,
            "select attr, grp, sum(v) as total from dim, fact "
            "where dim.k = fact.k group by grp, attr order by attr",
            config=no_hash_config(),
        )
        disabled = plan_query(
            warehouse_db,
            "select attr, grp, sum(v) as total from dim, fact "
            "where dim.k = fact.k group by grp, attr order by attr",
            config=disabled_no_hash(),
        )
        # The rigid build groups on (grp, attr) literally, which cannot
        # satisfy ORDER BY attr: it pays an extra sort.
        assert disabled.sort_count() > enabled.sort_count() or (
            disabled.cost.total_ms > enabled.cost.total_ms
        )


class TestSortAhead:
    def test_sort_ahead_appears_below_join(self, warehouse_db):
        plan = plan_query(
            warehouse_db,
            "select dim.k, attr, sum(v) as total from dim, fact "
            "where dim.k = fact.k group by dim.k, attr order by dim.k",
            config=no_hash_config(),
        )
        # Either an index provides the order or a sort sits below the
        # top-most join; in no case may the group-by re-sort above.
        group_sorts = [
            s for s in plan.find_all(OpKind.SORT)
            if s.args.get("reason") == "group by"
        ]
        assert not group_sorts

    def test_sort_ahead_disabled_with_master_switch(self, warehouse_db):
        config = disabled_no_hash()
        optimizer = Optimizer(warehouse_db, config)
        optimizer.plan_sql(
            "select dim.k, attr, sum(v) as total from dim, fact "
            "where dim.k = fact.k group by dim.k, attr order by dim.k"
        )
        assert optimizer.last_stats.sort_ahead_plans == 0
        assert optimizer.last_planner.interesting_orders == []


class TestGeneralOrdersInPlans:
    def test_group_by_any_permutation_of_index_order(self, simple_db):
        """§7: GROUP BY y, x satisfiable by the (x) key index order with
        FD reduction — column order in the clause must not matter."""
        forward = plan_query(
            simple_db,
            "select x, y, count(*) as n from a group by x, y",
            config=no_hash_config(),
        )
        backward = plan_query(
            simple_db,
            "select y, x, count(*) as n from a group by y, x",
            config=no_hash_config(),
        )
        assert forward.sort_count() == backward.sort_count()

    def test_rigid_mode_depends_on_written_order(self, simple_db):
        config = disabled_no_hash()
        backward = plan_query(
            simple_db,
            "select y, x, count(*) as n from a group by y, x",
            config=config,
        )
        forward = plan_query(
            simple_db,
            "select x, y, count(*) as n from a group by x, y",
            config=config,
        )
        assert backward.sort_count() >= forward.sort_count()


class TestOrderedNlj:
    def test_ordered_flag_requires_order_optimization(self, warehouse_db):
        sql = (
            "select dim.k, v from dim, fact where dim.k = fact.k "
            "order by dim.k"
        )
        enabled = plan_query(warehouse_db, sql, config=no_hash_config())
        ordered_joins = [
            node
            for node in enabled.find_all(OpKind.NLJ_INDEX)
            if node.args.get("ordered")
        ]
        disabled = plan_query(warehouse_db, sql, config=disabled_no_hash())
        disabled_ordered = [
            node
            for node in disabled.find_all(OpKind.NLJ_INDEX)
            if node.args.get("ordered")
        ]
        assert not disabled_ordered
        # The enabled build finds at least one ordered probe plan here
        # (index on dim.k drives ordered probes into fact_k).
        assert ordered_joins or enabled.find_all(OpKind.MERGE_JOIN)


class TestDistinctPlans:
    def test_distinct_via_index_order_free(self, simple_db):
        plan = plan_query(
            simple_db,
            "select distinct x from a",
            config=no_hash_config(),
        )
        # With hash ops off, the sorted DISTINCT rides the key index
        # order: no sort anywhere.
        assert plan.sort_count() == 0
        assert plan.find_all(OpKind.DISTINCT_SORTED)

    def test_distinct_hash_available(self, simple_db):
        plan = plan_query(simple_db, "select distinct y from a")
        kinds = {node.kind for node in plan.find_all(OpKind.DISTINCT_HASH)} | {
            node.kind for node in plan.find_all(OpKind.DISTINCT_SORTED)
        }
        assert kinds


class TestMergeJoinCover:
    """§5.2: the merge-join outer sort covers a pending interesting
    order, so one sort feeds the join AND the ORDER BY."""

    def test_cover_sort_eliminates_top_sort(self, simple_db):
        config = no_hash_config(enable_index_nlj=False)
        plan = plan_query(
            simple_db,
            "select a.x, a.y, b.z from a, b where a.y = b.x "
            "order by a.y, a.x",
            config=config,
        )
        cover_sorts = [
            node
            for node in plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "merge-join cover"
        ]
        order_sorts = [
            node
            for node in plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "order by"
        ]
        if cover_sorts:
            # When the cover variant wins, the top sort is gone.
            assert not order_sorts
        # Either way the output must be ordered and the plan valid.
        from repro.api import execute

        result = execute(simple_db, plan)
        keys = [(row[1], row[0]) for row in result.rows]
        assert keys == sorted(keys)

    def test_cover_disabled_mode_never_uses_it(self, simple_db):
        config = disabled_no_hash()
        config.enable_index_nlj = False
        plan = plan_query(
            simple_db,
            "select a.x, a.y, b.z from a, b where a.y = b.x "
            "order by a.y, a.x",
            config=config,
        )
        assert not any(
            node.args.get("reason") == "merge-join cover"
            for node in plan.find_all(OpKind.SORT)
        )
