"""Derived tables: unmergeable FROM subqueries planned as sub-plans.

Mergeable views were always inlined (view merging); grouped, DISTINCT,
and UNION views are planned separately and exposed to the outer block
with their order/key/FD properties renamed — so the outer block's order
optimization still sees, e.g., that a grouped view is keyed by its
grouping columns.
"""

import random

import pytest

from repro import (
    Column,
    Database,
    Index,
    OptimizerConfig,
    TableSchema,
    run_query,
)
from repro.expr import col
from repro.optimizer.plan import OpKind
from repro.sqltypes import INTEGER
from repro.sqltypes.values import sort_key
from tests.reference import reference_query


@pytest.fixture(scope="module")
def db():
    rng = random.Random(23)
    database = Database()
    database.create_table(
        TableSchema(
            "a",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, rng.randint(0, 9)) for i in range(40)],
    )
    database.create_table(
        TableSchema(
            "b",
            [Column("x", INTEGER, nullable=False), Column("z", INTEGER)],
        ),
        rows=[(rng.randint(0, 50), rng.randint(0, 5)) for _ in range(60)],
    )
    database.create_index(Index.on("a_x", "a", ["x"], unique=True, clustered=True))
    return database


CONFIGS = {
    "full": OptimizerConfig(),
    "disabled": OptimizerConfig.disabled(),
    "no-hash": OptimizerConfig(
        enable_hash=False
    ),
}

QUERIES = [
    # Grouped view with outer filter and order.
    "select v.y, v.n from (select y, count(*) as n from a group by y) v "
    "where v.n > 2 order by v.n desc, v.y",
    # Grouped view joined back to a base table.
    "select v.y, v.n, a.x from "
    "(select y, count(*) as n from a group by y) v, a "
    "where v.y = a.y and a.x < 10 order by a.x",
    # DISTINCT view.
    "select d.x from (select distinct x from b) d order by d.x",
    # Aggregation over a grouped view (two levels of grouping).
    "select t.n, count(*) as groups_with_n from "
    "(select y, count(*) as n from a group by y) t "
    "group by t.n order by t.n",
    # UNION view.
    "select w.s, count(*) as c from "
    "(select x as s from a union select x from b) w "
    "group by w.s order by c desc, w.s fetch first 5 rows only",
    # Outer join against a grouped view.
    "select a.x, v.n from a left join "
    "(select y, count(*) as n from a group by y) v on a.y = v.y "
    "order by a.x",
    # Two derived tables joined together.
    "select p.y, q.z from "
    "(select distinct y from a) p, (select distinct z from b) q "
    "where p.y = q.z order by p.y",
]


def normalized(rows):
    return sorted(
        rows, key=lambda row: tuple(sort_key(value) for value in row)
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("sql", QUERIES)
def test_derived_matches_reference(db, sql, config_name):
    expected = reference_query(db, sql)
    result = run_query(db, sql, config=CONFIGS[config_name])
    limited = "fetch first" in sql
    if limited:
        assert len(result.rows) == len(expected)
    else:
        assert normalized(result.rows) == normalized(expected), (
            f"{sql!r} under {config_name}\n{result.plan.explain()}"
        )


class TestDerivedProperties:
    def test_grouped_view_is_keyed_by_group_columns(self, db):
        from repro.api import plan_query

        plan = plan_query(
            db,
            "select v.y, v.n from "
            "(select y, count(*) as n from a group by y) v",
        )
        derived_nodes = [
            node
            for node in _walk(plan.root)
            if node.args.get("derived") == "v"
        ]
        assert derived_nodes
        keys = derived_nodes[0].properties.key_property.keys
        assert frozenset((col("v", "y"),)) in keys

    def test_group_fd_translates_to_view_columns(self, db):
        from repro.api import plan_query

        plan = plan_query(
            db,
            "select v.y, v.n from "
            "(select y, count(*) as n from a group by y) v",
        )
        derived_nodes = [
            node
            for node in _walk(plan.root)
            if node.args.get("derived") == "v"
        ]
        context = derived_nodes[0].properties.context()
        assert context.fds.determines([col("v", "y")], col("v", "n"))

    def test_order_by_view_key_plus_dependent_reduces(self, db):
        """ORDER BY (v.y, v.n): v.y keys the view so v.n is redundant —
        any sort is single-column."""
        from repro.api import plan_query

        plan = plan_query(
            db,
            "select v.y, v.n from "
            "(select y, count(*) as n from a group by y) v "
            "order by v.y, v.n",
        )
        for sort in plan.find_all(OpKind.SORT):
            assert len(sort.args["order"]) == 1


def _walk(node):
    yield node
    for child in node.children:
        yield from _walk(child)


class TestSortPushIntoView:
    """§5.1/§1: interesting orders push *into* views — the view offers
    an ordered candidate and the outer block skips its own sort."""

    def test_view_sort_serves_outer_order_by(self, db):
        from repro.api import plan_query
        from repro import OptimizerConfig

        config = OptimizerConfig(
            enable_hash=False
        )
        plan = plan_query(
            db,
            "select v.y, v.n from "
            "(select y, count(*) as n from a group by y) v order by v.y",
            config=config,
        )
        # At most one sort in the whole plan, and no order-by sort above
        # the derived boundary.
        assert plan.sort_count() <= 1
        order_sorts = [
            node
            for node in plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "order by"
        ]
        assert not order_sorts

    def test_execution_ordered(self, db):
        result = run_query(
            db,
            "select v.y, v.n from "
            "(select y, count(*) as n from a group by y) v order by v.y",
        )
        values = [row[0] for row in result.rows]
        assert values == sorted(values)
