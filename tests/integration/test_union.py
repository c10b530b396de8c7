"""UNION and UNION ALL planning and execution."""

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
from repro.errors import ParseError, QgmError
from repro.executor import MODE_INTERPRETED, MODE_VECTOR
from repro.optimizer.plan import OpKind
from repro.parser import parse_query
from repro.sqltypes import INTEGER
from repro.sqltypes.values import sort_key
from repro.verify.oracle import normalized, tier1_matrix
from repro.verify.reference import reference_query


@pytest.fixture(scope="module")
def db():
    rng = random.Random(61)
    database = Database()
    database.create_table(
        TableSchema(
            "a",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, rng.randint(0, 9)) for i in range(30)],
    )
    database.create_table(
        TableSchema(
            "b",
            [Column("x", INTEGER, nullable=False), Column("z", INTEGER)],
        ),
        rows=[(rng.randint(0, 40), rng.randint(0, 5)) for _ in range(50)],
    )
    database.create_index(Index.on("a_x", "a", ["x"], unique=True, clustered=True))
    return database


def rows_of(db, table):
    return [row for _rid, row in db.store(table).heap.scan()]


class TestUnionAll:
    def test_concatenates(self, db):
        result = run_query(
            db, "select x from a union all select x from b"
        )
        assert len(result.rows) == 80
        assert result.plan.find_all(OpKind.CONCAT)
        assert not result.plan.find_all(OpKind.DISTINCT_HASH)
        assert not result.plan.find_all(OpKind.DISTINCT_SORTED)

    def test_order_by_applies_to_whole_union(self, db):
        result = run_query(
            db,
            "select x, y from a union all select x, z from b order by x",
        )
        values = [row[0] for row in result.rows]
        assert values == sorted(values)

    def test_three_branches(self, db):
        result = run_query(
            db,
            "select x from a union all select x from b "
            "union all select x from a",
        )
        assert len(result.rows) == 110


class TestUnionDistinct:
    def test_deduplicates(self, db):
        result = run_query(db, "select x from a union select x from b")
        expected = {
            (row[0],) for row in rows_of(db, "a")
        } | {(row[0],) for row in rows_of(db, "b")}
        assert sorted(result.rows) == sorted(expected)

    def test_dedup_across_branches_with_same_values(self, db):
        result = run_query(db, "select y from a union select y from a")
        singles = {(row[1],) for row in rows_of(db, "a")}
        assert sorted(result.rows) == sorted(singles)

    def test_order_by_desc(self, db):
        result = run_query(
            db, "select x from a union select x from b order by x desc"
        )
        values = [row[0] for row in result.rows]
        assert values == sorted(values, reverse=True)
        assert len(values) == len(set(values))

    def test_positional_order_by_and_fetch(self, db):
        result = run_query(
            db,
            "select x, y from a union select x, z from b "
            "order by 2, 1 fetch first 5 rows only",
        )
        assert len(result.rows) == 5
        keys = [(sort_key(row[1]), sort_key(row[0])) for row in result.rows]
        assert keys == sorted(keys)

    def test_sorted_dedup_available_without_hash(self, db):
        config = OptimizerConfig(
            enable_hash=False
        )
        result = run_query(
            db,
            "select x from a union select x from b order by x",
            config=config,
        )
        assert result.plan.find_all(OpKind.DISTINCT_SORTED)
        # One sort covers both the dedupe and the ORDER BY.
        assert result.plan.sort_count() == 1
        values = [row[0] for row in result.rows]
        assert values == sorted(values)


class TestUnionThroughFinalize:
    """A union with dedupe, ORDER BY or FETCH FIRST is planned as a block
    over its UNION ALL, so it gets the same enforcers as any block."""

    def test_fetch_first_plans_a_top_n_sort(self, db):
        sql = (
            "select x, y from a union all select x, z from b "
            "order by x fetch first 3 rows only"
        )
        result = run_query(db, sql)
        assert result.plan.find_all(OpKind.TOPN)
        assert not result.plan.find_all(OpKind.SORT)
        assert result.rows == reference_query(db, sql)

    def test_dedupe_sort_covering_order_by_is_the_only_sort(self, db):
        config = OptimizerConfig(
            enable_hash=False
        )
        sql = "select x, y from a union select x, z from b order by 2"
        result = run_query(db, sql, config=config)
        assert result.plan.find_all(OpKind.DISTINCT_SORTED)
        sorts = [
            node
            for kind in (OpKind.SORT, OpKind.PARTIAL_SORT, OpKind.TOPN)
            for node in result.plan.find_all(kind)
        ]
        assert len(sorts) == 1
        keys = [sort_key(row[1]) for row in result.rows]
        assert keys == sorted(keys)

    def test_union_in_from_keeps_distinct_semantics(self, db):
        result = run_query(
            db,
            "select u.x from (select x from a union select x from b) u",
        )
        expected = {(row[0],) for row in rows_of(db, "a") + rows_of(db, "b")}
        assert sorted(result.rows) == sorted(expected)
        assert result.plan.find_all(OpKind.CONCAT)


MATRIX_STATEMENTS = (
    "select x, y from a union all select x, z from b "
    "order by 1, 2 fetch first 7 rows only",
    "select x, y from a union select x, z from b order by 2 desc, 1",
    "select y from a union select z from b order by 1 fetch first 3 rows only",
    "select x from a union select x from b",
    "select u.x, u.y from (select x, y from a union select x, z from b) u "
    "where u.y > 2 order by u.x, u.y",
    "select u.y, count(*) as n from (select y from a union all select z "
    "from b) u group by u.y order by u.y",
)


@pytest.mark.parametrize("mode", [MODE_VECTOR, MODE_INTERPRETED])
@pytest.mark.parametrize("config_name", sorted(tier1_matrix()))
@pytest.mark.parametrize("index", range(len(MATRIX_STATEMENTS)))
def test_rows_equal_reference(db, index, config_name, mode):
    sql = MATRIX_STATEMENTS[index]
    result = run_query(db, sql, config=tier1_matrix()[config_name], mode=mode)
    expected = reference_query(db, sql)
    if "order by" in sql:
        # Every ORDER BY here is total on the output rows.
        assert result.rows == expected
    else:
        assert normalized(result.rows) == normalized(expected)


class TestUnionErrors:
    def test_arity_mismatch(self, db):
        with pytest.raises(QgmError):
            run_query(db, "select x, y from a union select x from b")

    def test_order_by_in_non_final_branch(self, db):
        with pytest.raises(ParseError):
            parse_query(
                "select x from a order by x union select x from b",
                db.catalog,
            )

    def test_mixed_union_kinds_rejected(self, db):
        with pytest.raises(ParseError):
            parse_query(
                "select x from a union select x from b "
                "union all select x from a",
                db.catalog,
            )

    def test_output_names_from_first_branch(self, db):
        result = run_query(
            db, "select x as key, y as val from a union select x, z from b"
        )
        assert result.column_names == ("key", "val")
