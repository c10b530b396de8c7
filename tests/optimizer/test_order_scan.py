"""The order scan (§5.1): interesting-order generation and push-down."""

import pytest

from repro import Column, Database, Index, OptimizerConfig, TableSchema
from repro.core.ordering import OrderSpec
from repro.expr import col
from repro.optimizer.order_scan import run_order_scan
from repro.optimizer.planner import PlannerContext
from repro.parser import parse_query
from repro.qgm import normalize, rewrite
from repro.sqltypes import INTEGER


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "a",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, i % 5) for i in range(50)],
    )
    database.create_table(
        TableSchema(
            "b",
            [Column("x", INTEGER, nullable=False), Column("w", INTEGER)],
        ),
        rows=[(i % 50, i) for i in range(100)],
    )
    return database


def scan_for(db, sql, config=None):
    block = normalize(rewrite(parse_query(sql, db.catalog)))
    planner = PlannerContext.build(db, config or OptimizerConfig(), block)
    return run_order_scan(planner), planner


class TestOrderScan:
    def test_order_by_produces_interesting_order(self, db):
        orders, _ = scan_for(db, "select x, y from a order by x, y")
        assert OrderSpec.of(col("a", "x")) in orders  # reduced: x is key

    def test_group_by_produces_concrete_order(self, db):
        orders, _ = scan_for(
            db,
            "select y, count(*) as n from a group by y",
        )
        assert OrderSpec.of(col("a", "y")) in orders

    def test_group_by_on_key_reduces_to_key(self, db):
        orders, _ = scan_for(
            db,
            "select x, y, count(*) as n from a group by x, y",
        )
        # {a.x} -> {a.y}: the concrete group order is just (a.x).
        assert OrderSpec.of(col("a", "x")) in orders
        assert all(len(order) == 1 for order in orders)

    def test_aligned_group_and_order_by(self, db):
        orders, _ = scan_for(
            db,
            "select y, count(*) as n from a group by y order by y",
        )
        assert OrderSpec.of(col("a", "y")) in orders

    def test_homogenization_through_join_equivalence(self, db):
        orders, _ = scan_for(
            db,
            "select b.x, count(*) as n from a, b where a.x = b.x "
            "group by b.x",
        )
        # b.x homogenizes to the class head a.x during the scan.
        heads = {order.head().column for order in orders}
        assert col("a", "x") in heads or col("b", "x") in heads

    def test_constant_bound_columns_drop_out(self, db):
        orders, _ = scan_for(
            db, "select x, y from a where y = 3 order by y, x"
        )
        assert OrderSpec.of(col("a", "x")) in orders

    def test_disabled_scan_is_empty(self, db):
        orders, planner = scan_for(
            db,
            "select x, y from a order by x",
            config=OptimizerConfig.disabled(),
        )
        assert orders == []

    def test_agg_only_order_by_yields_nothing(self, db):
        orders, _ = scan_for(
            db,
            "select y, count(*) as n from a group by y order by n",
        )
        # ORDER BY on the aggregate cannot push below the group-by; the
        # group order itself is still interesting.
        for order in orders:
            assert order.head().column.qualifier  # base column, not agg

    def test_max_orders_respected(self, db, monkeypatch):
        from repro.optimizer import order_scan

        monkeypatch.setattr(order_scan, "MAX_SORT_AHEAD_ORDERS", 1)
        orders, _ = scan_for(db, "select distinct y, x from a order by x")
        assert len(orders) <= 1

    def test_distinct_contributes_orders(self, db):
        orders, _ = scan_for(db, "select distinct y from a")
        assert OrderSpec.of(col("a", "y")) in orders


# The optimistic context gives a key FD its own table's columns as
# tail, never every column of the join box: b holds two rows for each
# a.x, with distinct w. With ``K -> *`` TPC-D's q3_customer
# (``c_custkey = :k``) lost every interesting order.
def test_a_constant_key_does_not_fix_the_other_tables_columns(db):
    orders, _ = scan_for(
        db,
        "select b.w, count(*) as n from a, b where a.x = b.x and a.x = 3 "
        "group by b.w",
    )
    assert OrderSpec.of(col("b", "w")) in orders


def test_a_key_does_not_determine_the_other_tables_columns(db):
    orders, _ = scan_for(
        db, "select a.x, b.w from a, b where a.x = b.x order by a.x, b.w"
    )
    assert OrderSpec.of(col("a", "x"), col("b", "w")) in orders


def test_a_derived_tables_key_does_not_determine_the_other_tables_columns(db):
    """The grouped view's key ``g.y`` determines g's outputs only."""
    from repro.optimizer.optimizer import Optimizer

    optimizer = Optimizer(db)
    optimizer.plan_sql(
        "select g.y, b.w from (select y, count(*) as n from a group by y) g, b "
        "where g.y = b.x order by g.y, b.w"
    )
    orders = optimizer.last_planner.interesting_orders
    assert OrderSpec.of(col("b", "x"), col("b", "w")) in orders
