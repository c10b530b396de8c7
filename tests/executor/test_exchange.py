"""Exchange operators: merge identity/stability, cancellation, faults.

Covers the executor half of the partitioning subsystem:

* MergeExchange must be byte-identical across both engines and to
  the single-stream (no-partitioning) plan for the same query;
* the k-way merge is stable — equal keys resolve to
  partition-then-arrival order, never by comparing row payloads;
* a consumer cancelled mid-merge (or abandoning the generator) leaves
  no stranded ``repro-exch-*`` worker (the autouse suite guard
  re-checks after every test here);
* a fault injected into an *individual* partition worker's token
  surfaces at the gather point as the typed error, without corrupting
  later fault-free runs.
"""

import pytest

from repro.api import execute, plan_query
from repro.core.ordering import OrderSpec, asc
from repro.errors import QueryCancelled, QueryTimeout
from repro.executor import (
    ExecutionContext,
    MODE_INTERPRETED,
    MODE_VECTOR,
)
from repro.executor.build import build_executor
from repro.executor.context import CancelToken, set_fault_hook
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
    def test_mid_merge_cancel_raises_typed_and_joins_workers(
        self, partitioned_db
    ):
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
            for _ in stream:
                pass
        # The suite-wide autouse fixture re-checks for leaked
        # repro-exch-* threads after this test returns.

    def test_abandoned_generator_joins_workers(self, partitioned_db):
        plan = _merge_plan(partitioned_db)
        operator = build_executor(plan, partitioned_db)
        context = ExecutionContext(partitioned_db, batch_size=64)
        stream = operator.batches(context)
        assert next(stream)
        stream.close()  # GeneratorExit must tear the workers down


class TestWorkerFaults:
    GATHER_SQL = "select okey, qty from lineitem where qty < 40"

    def _gather_plan(self, db):
        plan = plan_query(db, self.GATHER_SQL, config=OptimizerConfig())
        assert plan.find_all(OpKind.GATHER_EXCHANGE), plan.explain()
        return plan

    @pytest.mark.parametrize(
        "kind,error",
        [("cancel", QueryCancelled), ("timeout", QueryTimeout)],
    )
    def test_single_worker_fault_surfaces_at_gather(
        self, partitioned_db, kind, error
    ):
        plan = self._gather_plan(partitioned_db)
        baseline = execute(partitioned_db, plan).rows

        parent = CancelToken()
        state = {"victim": None}

        def hook(token):
            # Trip exactly one partition worker's token — never the
            # consumer's — at its first checkpoint.
            if token is parent or state["victim"] is not None:
                return
            state["victim"] = token
            if kind == "cancel":
                token.cancel("injected worker fault")
            else:
                token.expire()

        previous = set_fault_hook(hook)
        try:
            context = ExecutionContext(
                partitioned_db, batch_size=32, cancel_token=parent
            )
            with pytest.raises(error):
                execute(partitioned_db, plan, context=context)
        finally:
            set_fault_hook(previous)
        assert state["victim"] is not None, "no worker checkpoint reached"
        assert not parent.cancelled  # the fault stayed in the worker
        # The fault interrupted; it must not corrupt later runs.
        assert execute(partitioned_db, plan).rows == baseline

    def test_worker_metrics_are_absorbed_at_gather(self, partitioned_db):
        plan = self._gather_plan(partitioned_db)
        context = ExecutionContext(partitioned_db)
        result = execute(partitioned_db, plan, context=context)
        scans = [
            entry
            for entry in context.metrics.values()
            if entry.label.startswith("partition scan")
        ]
        assert len(scans) == 4  # one slice per partition worker
        total_rows = partitioned_db.store("lineitem").heap.row_count
        assert sum(entry.rows for entry in scans) == total_rows
        assert len(result.rows) < total_rows  # the filter did run
