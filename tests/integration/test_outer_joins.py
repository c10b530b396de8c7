"""LEFT OUTER JOIN: correctness and the §4.1 one-directional FD."""

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
from repro.api import plan_query
from repro.catalog import StatsCorrections
from repro.cost.estimate import conjunction_fingerprint
from repro.expr.analysis import conjuncts_of
from repro.optimizer.plan import OpKind
from repro.sqltypes import INTEGER
from repro.sqltypes.values import sort_key
from tests.reference import reference_query


@pytest.fixture(scope="module")
def db():
    rng = random.Random(31)
    database = Database()
    database.create_table(
        TableSchema(
            "a",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, rng.randint(0, 9)) for i in range(40)],
    )
    # b covers only part of a's key range, guaranteeing padded rows,
    # and has duplicates per key.
    database.create_table(
        TableSchema(
            "b",
            [Column("x", INTEGER, nullable=False), Column("z", INTEGER)],
        ),
        rows=[(rng.randint(0, 60), rng.randint(0, 5)) for _ in range(60)],
    )
    database.create_table(
        TableSchema(
            "c",
            [Column("z", INTEGER, nullable=False), Column("w", INTEGER)],
        ),
        rows=[(i % 6, rng.randint(0, 3)) for i in range(12)],
    )
    database.create_index(Index.on("a_x", "a", ["x"], unique=True, clustered=True))
    database.create_index(Index.on("b_x", "b", ["x"], clustered=True))
    return database


CONFIGS = {
    "full": OptimizerConfig(),
    "disabled": OptimizerConfig.disabled(),
    "no-hash": OptimizerConfig(
        enable_hash=False
    ),
}

QUERIES = [
    # Basic padding.
    "select a.x, a.y, b.z from a left join b on a.x = b.x order by a.x",
    # ON-only predicate on the null side (filters before padding).
    "select a.x, b.z from a left outer join b on a.x = b.x and b.z > 2 "
    "order by a.x",
    # WHERE on the null side (filters after padding).
    "select a.x, b.z from a left join b on a.x = b.x where b.z = 3 "
    "order by a.x",
    # WHERE IS NULL — the anti-join idiom.
    "select a.x from a left join b on a.x = b.x where b.x is null "
    "order by a.x",
    # Aggregation over padded rows: COUNT(col) skips NULLs.
    "select a.x, count(b.z) as n, sum(b.z) as total from a "
    "left join b on a.x = b.x group by a.x order by a.x",
    # Outer join followed by an inner join.
    "select a.x, b.z, c.w from a left join b on a.x = b.x, c "
    "where b.z = c.z order by a.x, c.w",
    # Mixed: inner join then outer join.
    "select a.x, c.w, b.z from a inner join c on a.y = c.z "
    "left join b on a.x = b.x order by a.x, c.w, b.z",
]


def normalized(rows):
    return sorted(
        rows, key=lambda row: tuple(sort_key(value) for value in row)
    )


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("sql", QUERIES)
def test_outer_join_matches_reference(db, sql, config_name):
    expected = reference_query(db, sql)
    result = run_query(db, sql, config=CONFIGS[config_name])
    assert normalized(result.rows) == normalized(expected), (
        f"{sql!r} under {config_name}\n{result.plan.explain()}"
    )


class TestPaddingSemantics:
    def test_padded_rows_present(self, db):
        result = run_query(
            db, "select a.x, b.z from a left join b on a.x = b.x"
        )
        assert any(row[1] is None for row in result.rows)
        # Every a.x appears at least once.
        assert {row[0] for row in result.rows} == set(range(40))

    def test_on_constant_does_not_filter_outer(self, db):
        # ON b.z = 99 matches nothing: every outer row padded, none lost.
        result = run_query(
            db,
            "select a.x, b.z from a left join b on a.x = b.x and b.z = 99",
        )
        assert len(result.rows) == 40
        assert all(row[1] is None for row in result.rows)


class TestOneDirectionalFd:
    """§4.1: "If x = y is a join predicate for an outer join, then
    {x} -> {y} holds if x is a column from a non-null-supplying side."""

    def test_order_by_preserved_then_null_side_reduces(self, db):
        config = OptimizerConfig(
            enable_hash=False
        )
        result = run_query(
            db,
            "select a.x, b.x from a left join b on a.x = b.x "
            "order by a.x, b.x",
            config=config,
        )
        # (a.x, b.x) reduces to (a.x): any sort is single-column.
        for sort in result.plan.find_all(OpKind.SORT):
            assert len(sort.args["order"]) == 1

    def test_reverse_direction_does_not_reduce(self, db):
        from repro.core import OrderSpec, reduce_order
        from repro.expr import col
        from repro.core.context import OrderContext
        from repro.core.fd import fd

        # The FD is one-directional: {b.x} -> {a.x} must NOT hold.
        context = OrderContext.empty().with_fd(
            fd([col("a", "x")], [col("b", "x")])
        )
        spec = OrderSpec.of(col("b", "x"), col("a", "x"))
        assert reduce_order(spec, context) == spec

    def test_no_equivalence_class_across_outer_join(self, db):
        """Padded rows break x = y, so ORDER BY b.x must not be
        satisfied by an a.x order."""
        config = OptimizerConfig(
            enable_hash=False
        )
        result = run_query(
            db,
            "select a.x, b.x from a left join b on a.x = b.x "
            "order by b.x, a.x",
            config=config,
        )
        values = [
            (sort_key(row[1]), sort_key(row[0])) for row in result.rows
        ]
        assert values == sorted(values)


class TestOuterJoinPlanning:
    def test_join_order_follows_from_clause(self, db):
        result = run_query(
            db, "select a.x, b.z from a left join b on a.x = b.x"
        )
        # a must be the outer (preserved) side of the outer join.
        joins = (
            result.plan.find_all(OpKind.NLJ)
            + result.plan.find_all(OpKind.HASH_JOIN)
            + result.plan.find_all(OpKind.NLJ_INDEX)
        )
        outer_joins = [j for j in joins if j.args.get("left_outer")]
        assert outer_joins
        assert "a" in outer_joins[0].children[0].aliases()

    def test_preserved_side_order_propagates(self, db):
        config = OptimizerConfig(
            enable_hash=False
        )
        result = run_query(
            db,
            "select a.x, b.z from a left join b on a.x = b.x order by a.x",
            config=config,
        )
        order_sorts = [
            node
            for node in result.plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "order by"
        ]
        assert not order_sorts  # a's index order flows through the join

    def test_on_only_inner_filter_follows_feedback(self):
        # The ON-only conjuncts become one FILTER node, which feedback
        # observes as one conjunction: an override for that conjunction
        # must reach the estimate, as it does for WHERE filters.
        database = Database()
        database.create_table(
            TableSchema("a", [Column("x", INTEGER, nullable=False)]),
            rows=[(i,) for i in range(40)],
        )
        database.create_table(
            TableSchema(
                "b",
                [Column("x", INTEGER, nullable=False), Column("z", INTEGER)],
            ),
            rows=[(i, i % 6) for i in range(60)],
        )
        sql = (
            "select a.x, b.z from a left join b "
            "on a.x = b.x and b.z > 2 and b.x < 50"
        )

        def inner_filter():
            plan = plan_query(database, sql)
            (node,) = [
                node
                for node in plan.find_all(OpKind.FILTER)
                if node.children[0].aliases() == {"b"}
            ]
            return node

        before = inner_filter()
        assert len(conjuncts_of(before.args["predicate"])) == 2
        corrections = StatsCorrections()
        corrections.add_selectivity(
            conjunction_fingerprint(before.args["predicate"]), 0.25
        )
        database.catalog.apply_feedback(corrections)
        assert before.properties.cardinality != 15.0
        assert inner_filter().properties.cardinality == 15.0  # 60 × 0.25
