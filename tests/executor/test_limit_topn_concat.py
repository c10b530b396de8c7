"""LimitOp, Top-N sorting (``SortOp`` under a limit), and ConcatOp at
the operator level."""

import random

import pytest

from repro import Column, Database, TableSchema
from repro.core import OrderSpec
from repro.core.ordering import desc
from repro.errors import ExecutionError
from repro.executor import ExecutionContext, SortOp, TableScanOp
from repro.executor.operators import ConcatOp, LimitOp
from repro.expr import RowSchema, col
from repro.sqltypes import INTEGER

TA, TB = col("t", "a"), col("t", "b")
SCHEMA = RowSchema([TA, TB])


@pytest.fixture
def db():
    rng = random.Random(3)
    database = Database()
    database.create_table(
        TableSchema("t", [Column("a", INTEGER), Column("b", INTEGER)]),
        rows=[(i, rng.randint(0, 999)) for i in range(500)],
    )
    database.create_table(
        TableSchema("u", [Column("a", INTEGER), Column("b", INTEGER)]),
        rows=[(i + 1000, rng.randint(0, 999)) for i in range(200)],
    )
    return database


def run(op, db, **context_args):
    return op.execute(ExecutionContext(db, **context_args))


def scan(db, table="t"):
    return TableScanOp(table, "t", SCHEMA)


class TestLimit:
    def test_truncates(self, db):
        rows = run(LimitOp(scan(db), 10), db)
        assert len(rows) == 10

    def test_limit_larger_than_input(self, db):
        rows = run(LimitOp(scan(db), 10_000), db)
        assert len(rows) == 500

    def test_stops_pulling_from_child(self, db):
        # The limit short-circuits: only the first page(s) are read.
        db.reset_io(cold=True)
        run(LimitOp(scan(db), 1), db)
        assert db.buffer_pool.stats.total_accesses <= 2

    def test_invalid_count(self, db):
        with pytest.raises(ExecutionError):
            LimitOp(scan(db), 0)


class TestTopN:
    def test_matches_sort_then_limit(self, db):
        order = OrderSpec((desc(TB),))
        top = run(SortOp(scan(db), order, limit=7), db)
        full = run(SortOp(scan(db), order), db)
        assert [row[1] for row in top] == [row[1] for row in full[:7]]

    def test_count_larger_than_input(self, db):
        top = run(SortOp(scan(db), OrderSpec.of(TA), limit=10_000), db)
        assert len(top) == 500
        values = [row[0] for row in top]
        assert values == sorted(values)

    def test_stable_for_ties(self, db):
        db.store("t").load([(i, 1) for i in range(20)])
        top = run(SortOp(scan(db), OrderSpec.of(TB), limit=5), db)
        # All ties on b: the first five input rows win, in input order.
        assert [row[0] for row in top] == [0, 1, 2, 3, 4]

    def test_guards(self, db):
        with pytest.raises(ExecutionError):
            SortOp(scan(db), OrderSpec(), limit=5)
        with pytest.raises(ExecutionError):
            SortOp(scan(db), OrderSpec.of(TA), limit=0)


class TestConcat:
    def test_appends_in_order(self, db):
        out_schema = RowSchema([col("", "a"), col("", "b")])
        op = ConcatOp([scan(db, "t"), scan(db, "u")], out_schema)
        rows = run(op, db)
        assert len(rows) == 700
        assert rows[0][0] == 0
        assert rows[500][0] == 1000

    def test_arity_guards(self, db):
        out_schema = RowSchema([col("", "a")])
        with pytest.raises(ExecutionError):
            ConcatOp([scan(db)], out_schema)  # one child
        with pytest.raises(ExecutionError):
            ConcatOp([scan(db), scan(db, "u")], out_schema)  # arity


class TestExternalSort:
    def test_spilled_sort_matches_in_memory(self, db):
        order = OrderSpec.of(TB, TA)
        in_memory = run(SortOp(scan(db), order), db)
        spilled = run(SortOp(scan(db), order), db, sort_memory_rows=37)
        assert in_memory == spilled

    def test_run_accounting(self, db):
        context = ExecutionContext(db, sort_memory_rows=100)
        op = SortOp(scan(db), OrderSpec.of(TB))
        list(op.rows(context))
        assert context.spill_pages > 0
        assert context.metrics[op].sorted_rows == 500
