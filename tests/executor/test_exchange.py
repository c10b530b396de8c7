"""Merge exchange: identity/stability, cancellation, determinism.

Covers the executor half of the partitioning subsystem:

* MergeExchange must be byte-identical across both engines and to
  the single-stream (no-partitioning) plan for the same query;
* the k-way merge is stable — equal keys resolve to
  partition-then-arrival order, never by comparing row payloads;
* the merge runs on the consumer's thread: a mid-merge cancel raises
  at the next block, an abandoned generator just closes, and no
  thread is started;
* the simulated I/O of a merge-exchange plan is a function of the
  plan — the same cold execution charges the same misses every time,
  even when the table is larger than the buffer pool.
"""

import random
import threading

import pytest

from repro.api import execute, plan_query
from repro.core.ordering import OrderSpec, asc
from repro.errors import QueryCancelled
from repro.executor import (
    ExecutionContext,
    MODE_INTERPRETED,
    MODE_VECTOR,
)
from repro.executor.build import build_executor
from repro.executor.context import CancelToken
from repro.executor.exchange import MergeExchangeOp
from repro.executor.operators import PhysicalOperator
from repro.expr.nodes import ColumnRef
from repro.expr.schema import RowSchema
from repro.expr.vector import RowBlock
from repro.optimizer import OptimizerConfig
from repro.optimizer.plan import OpKind
from repro.storage import Database

ORDERED_SQL = "select okey, odate from orders order by odate"


def _merge_plan(db):
    plan = plan_query(db, ORDERED_SQL, config=OptimizerConfig())
    assert plan.find_all(OpKind.MERGE_EXCHANGE), plan.explain()
    assert plan.sort_count() == 0
    return plan


class TestCrossEngineIdentity:
    def test_merge_exchange_identical_in_both_engines(self, partitioned_db):
        plan = _merge_plan(partitioned_db)
        rows_by_mode = {
            mode: execute(partitioned_db, plan, mode=mode).rows
            for mode in (MODE_VECTOR, MODE_INTERPRETED)
        }
        assert rows_by_mode[MODE_VECTOR] == rows_by_mode[MODE_INTERPRETED]

    def test_merge_matches_single_stream_sort_byte_for_byte(
        self, partitioned_db
    ):
        merged = execute(partitioned_db, _merge_plan(partitioned_db)).rows
        off = OptimizerConfig()
        off.enable_partitioning = False
        baseline_plan = plan_query(partitioned_db, ORDERED_SQL, config=off)
        assert baseline_plan.sort_count() >= 1
        assert merged == execute(partitioned_db, baseline_plan).rows

    def test_batch_size_does_not_change_merge_output(self, partitioned_db):
        plan = _merge_plan(partitioned_db)
        baseline = execute(partitioned_db, plan).rows
        for batch_size in (1, 7, 4096):
            context = ExecutionContext(
                partitioned_db, batch_size=batch_size
            )
            assert execute(
                partitioned_db, plan, context=context
            ).rows == baseline


    def test_partition_scans_report_into_the_one_context(self, partitioned_db):
        # The merge pulls its children on the consumer's context: every
        # per-partition scan's metrics land there directly.
        context = ExecutionContext(partitioned_db)
        result = execute(
            partitioned_db, _merge_plan(partitioned_db), context=context
        )
        scans = [
            entry
            for entry in context.metrics.values()
            if entry.label.startswith("index scan")
        ]
        assert len(scans) == 4
        assert sum(entry.rows for entry in scans) == len(result.rows)


class _StaticOp(PhysicalOperator):
    """Fixed row source for direct operator-level tests."""

    def __init__(self, schema, rows):
        super().__init__(schema)
        self.rows = list(rows)

    def _blocks(self, context):
        size = context.batch_size
        for start in range(0, len(self.rows), size):
            yield RowBlock(self.rows[start : start + size])

    def label(self):
        return "static"


class TestMergeStability:
    SCHEMA = RowSchema([ColumnRef("t", "k"), ColumnRef("t", "src")])
    ORDER = OrderSpec([asc(ColumnRef("t", "k"))])

    def _merge(self, *streams):
        op = MergeExchangeOp(
            [_StaticOp(self.SCHEMA, rows) for rows in streams],
            self.SCHEMA,
            self.ORDER,
        )
        out = []
        for batch in op.batches(ExecutionContext(Database())):
            out.extend(batch)
        return out

    def test_equal_keys_keep_partition_then_arrival_order(self):
        merged = self._merge(
            [(1, "p0-a"), (1, "p0-b")],
            [(1, "p1-a"), (1, "p1-b")],
            [(1, "p2-a")],
        )
        assert merged == [
            (1, "p0-a"),
            (1, "p0-b"),
            (1, "p1-a"),
            (1, "p1-b"),
            (1, "p2-a"),
        ]

    def test_distinct_keys_interleave_in_key_order(self):
        merged = self._merge(
            [(1, "a"), (4, "d")],
            [(2, "b"), (3, "c"), (5, "e")],
        )
        assert [row[0] for row in merged] == [1, 2, 3, 4, 5]

    def test_row_payloads_are_never_compared(self):
        # Ties everywhere and uncomparable payloads: only the decorated
        # (key, partition, sequence) prefix may decide.
        class Opaque:
            __lt__ = None

        left, right = Opaque(), Opaque()
        merged = self._merge([(7, left)], [(7, right)])
        assert merged[0][1] is left and merged[1][1] is right


class TestCancellation:
    def test_mid_merge_cancel_raises_at_the_next_block(self, partitioned_db):
        plan = _merge_plan(partitioned_db)
        operator = build_executor(plan, partitioned_db)
        token = CancelToken()
        context = ExecutionContext(
            partitioned_db, batch_size=64, cancel_token=token
        )
        stream = operator.batches(context)
        assert next(stream)  # the merge is live
        token.cancel("test cancel")
        with pytest.raises(QueryCancelled):
            next(stream)

    def test_abandoned_generator_closes_cleanly(self, partitioned_db):
        plan = _merge_plan(partitioned_db)
        operator = build_executor(plan, partitioned_db)
        context = ExecutionContext(partitioned_db, batch_size=64)
        before = set(threading.enumerate())
        stream = operator.batches(context)
        assert next(stream)
        # The merge runs on this thread: it started none of its own.
        assert set(threading.enumerate()) == before
        stream.close()
        with pytest.raises(StopIteration):
            next(stream)
        # The operator tree is reusable after the abandoned pull.
        assert execute(partitioned_db, plan).rows


class TestDeterministicIo:
    def test_cold_runs_charge_identical_io(self):
        # Regression: per-partition worker threads interleaved their
        # page accesses by scheduling luck, so once the table outgrew
        # the pool the same plan charged different misses run to run.
        # The index is declared clustered but the rows are loaded in
        # key order, so every partition's scan fetches heap pages at
        # random and heap plus index leaves do not fit the 32-page pool.
        from repro.catalog import Column, Index, TableSchema, range_spec
        from repro.sqltypes import INTEGER

        rng = random.Random(7)
        db = Database(32)
        db.create_table(
            TableSchema(
                "big",
                [
                    Column("k", INTEGER, nullable=False),
                    Column("d", INTEGER, nullable=False),
                ],
                primary_key=("k",),
                partitioning=range_spec(["d"], [1000, 2000, 3000]),
            ),
            rows=[(i, rng.randrange(4000)) for i in range(8000)],
        )
        db.create_index(Index.on("big_d", "big", ("d",), clustered=True))
        plan = plan_query(db, "select k, d from big order by d")
        assert plan.find_all(OpKind.MERGE_EXCHANGE), plan.explain()
        charged = set()
        for _ in range(8):
            execute(db, plan, cold_cache=True)
            stats = db.buffer_pool.stats
            charged.add(
                (stats.hits, stats.sequential_misses, stats.random_misses)
            )
        assert len(charged) == 1, charged
