"""Aggregation and DISTINCT operators."""

import decimal

import pytest

from repro import Column, Database, TableSchema
from repro.core import OrderSpec
from repro.executor import (
    MODE_INTERPRETED,
    MODE_VECTOR,
    ExecutionContext,
    HashDistinctOp,
    HashGroupByOp,
    SortedDistinctOp,
    SortedGroupByOp,
    SortOp,
    TableScanOp,
)
from repro.expr import Aggregate, AggregateKind, RowSchema, col
from repro.sqltypes import INTEGER

TG, TV = col("t", "g"), col("t", "v")
SCHEMA = RowSchema([TG, TV])


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema("t", [Column("g", INTEGER), Column("v", INTEGER)]),
        rows=[
            (0, 1), (0, 2), (1, 10), (1, None), (2, 5),
            (0, 3), (1, 10), (None, 4),
        ],
    )
    return database


def scan():
    return TableScanOp("t", "t", SCHEMA)


def sorted_scan():
    return SortOp(scan(), OrderSpec.of(TG))


def run(op, db):
    return op.execute(ExecutionContext(db))


AGGS = [
    ("total", Aggregate(AggregateKind.SUM, TV)),
    ("n", Aggregate(AggregateKind.COUNT, None)),
    ("n_v", Aggregate(AggregateKind.COUNT, TV)),
    ("lo", Aggregate(AggregateKind.MIN, TV)),
    ("hi", Aggregate(AggregateKind.MAX, TV)),
    ("mean", Aggregate(AggregateKind.AVG, TV)),
]

EXPECTED = {
    0: (6, 3, 3, 1, 3, 2),
    1: (20, 3, 2, 10, 10, 10),
    2: (5, 1, 1, 5, 5, 5),
    None: (4, 1, 1, 4, 4, 4),
}


def check_groups(rows):
    assert len(rows) == 4
    for row in rows:
        group = row[0]
        assert row[1:] == EXPECTED[group], f"group {group}"


class TestSortedGroupBy:
    def test_all_aggregate_kinds(self, db):
        rows = run(SortedGroupByOp(sorted_scan(), [TG], AGGS), db)
        check_groups(rows)

    def test_null_group_is_its_own_group(self, db):
        rows = run(SortedGroupByOp(sorted_scan(), [TG], AGGS), db)
        assert any(row[0] is None for row in rows)

    def test_output_preserves_input_group_order(self, db):
        rows = run(
            SortedGroupByOp(
                sorted_scan(), [TG], [("n", Aggregate(AggregateKind.COUNT, None))]
            ),
            db,
        )
        groups = [row[0] for row in rows]
        assert groups == [0, 1, 2, None]  # NULLs high

    def test_empty_input(self, db):
        db.store("t").load([])
        rows = run(SortedGroupByOp(sorted_scan(), [TG], AGGS), db)
        assert rows == []


class TestHashGroupBy:
    def test_matches_sorted_results(self, db):
        rows = run(HashGroupByOp(scan(), [TG], AGGS), db)
        check_groups(rows)

    def test_scalar_aggregate_on_empty_input(self, db):
        db.store("t").load([])
        rows = run(
            HashGroupByOp(
                scan(), [], [("n", Aggregate(AggregateKind.COUNT, None))]
            ),
            db,
        )
        assert rows == [(0,)]

    def test_distinct_aggregate(self, db):
        aggs = [("d", Aggregate(AggregateKind.SUM, TV, distinct=True))]
        rows = run(HashGroupByOp(scan(), [TG], aggs), db)
        by_group = {row[0]: row[1] for row in rows}
        assert by_group[1] == 10  # 10 counted once

    def test_avg_of_all_nulls_is_null(self, db):
        db.store("t").load([(1, None), (1, None)])
        aggs = [("mean", Aggregate(AggregateKind.AVG, TV))]
        rows = run(HashGroupByOp(scan(), [TG], aggs), db)
        assert rows == [(1, None)]


@pytest.mark.parametrize("mode", [MODE_INTERPRETED, MODE_VECTOR])
@pytest.mark.parametrize("operator_class", [HashGroupByOp, SortedGroupByOp])
def test_scalar_aggregate_over_empty_input_yields_one_row(
    db, operator_class, mode
):
    db.store("t").load([])
    rows = operator_class(sorted_scan(), [], AGGS).execute(
        ExecutionContext(db, mode=mode)
    )
    assert rows == [(None, 0, 0, None, None, None)]


@pytest.mark.parametrize("mode", [MODE_INTERPRETED, MODE_VECTOR])
@pytest.mark.parametrize("operator_class", [HashGroupByOp, SortedGroupByOp])
def test_scalar_aggregate_folds_every_row(db, operator_class, mode):
    rows = operator_class(scan(), [], AGGS).execute(
        ExecutionContext(db, mode=mode, batch_size=3)
    )
    assert rows == [(35, 8, 7, 1, 10, 5)]


class TestDistinct:
    def test_sorted_distinct(self, db):
        db.store("t").load([(1, 1), (1, 1), (2, 2), (2, 2), (None, None)])
        op = SortedDistinctOp(SortOp(scan(), OrderSpec.of(TG, TV)))
        rows = run(op, db)
        assert len(rows) == 3

    def test_hash_distinct(self, db):
        db.store("t").load([(1, 1), (1, 1), (2, 2)])
        rows = run(HashDistinctOp(scan()), db)
        assert sorted(rows) == [(1, 1), (2, 2)]

    def test_hash_distinct_with_nulls(self, db):
        db.store("t").load([(None, 1), (None, 1), (None, 2)])
        rows = run(HashDistinctOp(scan()), db)
        assert len(rows) == 2
