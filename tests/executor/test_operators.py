"""Leaf/unary physical operators."""

import pytest

from repro import Column, Database, Index, TableSchema
from repro.core import OrderSpec
from repro.core.ordering import desc
from repro.errors import ExecutionError, QueryCancelled
from repro.executor import (
    MODE_INTERPRETED,
    MODE_VECTOR,
    ExecutionContext,
    FilterOp,
    IndexScanOp,
    PartialSortOp,
    ProjectOp,
    SortOp,
    TableScanOp,
)
from repro.executor.context import CancelToken
from repro.executor.operators import MaterializeOp
from repro.expr import Arithmetic, Comparison, ComparisonOp, RowSchema, col, lit
from repro.expr.nodes import ArithmeticOp
from repro.sqltypes import INTEGER

TA, TB = col("t", "a"), col("t", "b")
SCHEMA = RowSchema([TA, TB])

ALL_MODES = (MODE_INTERPRETED, MODE_VECTOR)


@pytest.fixture
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "t",
            [Column("a", INTEGER, nullable=False), Column("b", INTEGER)],
            primary_key=("a",),
        ),
        rows=[(i, (i * 7) % 10) for i in range(50)],
    )
    database.create_index(Index.on("t_b", "t", ["b"]))
    return database


def run(op, db):
    return op.execute(ExecutionContext(db))


def test_one_pull_protocol():
    """Every operator speaks ``_blocks`` and nothing else: no second
    protocol's hooks or per-operator capability flags exist to fall out
    of step, and the instrumented wrapper and its row adapters are
    defined once, on the base class."""
    import repro.executor.aggregate  # noqa: F401 - registers subclasses
    import repro.executor.exchange  # noqa: F401
    import repro.executor.joins  # noqa: F401
    from repro.executor import PhysicalOperator

    classes, stack = [], [PhysicalOperator]
    while stack:
        cls = stack.pop()
        classes.append(cls)
        stack.extend(cls.__subclasses__())
    product = [c for c in classes if c.__module__.startswith("repro.executor")]
    assert len(product) > 20
    base = {"blocks", "_blocks", "batches", "rows", "execute"}
    for cls in product:
        pull_names = {
            name
            for name in vars(cls)
            if name in base
            or name.endswith(("batches", "blocks", "capable"))
        }
        allowed = base if cls is PhysicalOperator else {"_blocks"}
        assert pull_names <= allowed, (cls.__name__, pull_names)
        if not cls.__subclasses__():
            assert cls._blocks is not PhysicalOperator._blocks, cls.__name__


class TestTableScan:
    def test_scans_all_rows(self, db):
        rows = run(TableScanOp("t", "t", SCHEMA), db)
        assert len(rows) == 50

    def test_charges_io(self, db):
        db.reset_io(cold=True)
        run(TableScanOp("t", "t", SCHEMA), db)
        assert db.buffer_pool.stats.total_misses > 0


class TestIndexScan:
    def test_full_scan_ordered(self, db):
        op = IndexScanOp("t", "t_b", "t", SCHEMA)
        rows = run(op, db)
        values = [row[1] for row in rows]
        assert values == sorted(values)
        assert len(rows) == 50

    def test_bounded_scan(self, db):
        op = IndexScanOp("t", "t_b", "t", SCHEMA, low=(3,), high=(5,))
        rows = run(op, db)
        assert rows and all(3 <= row[1] <= 5 for row in rows)

    def test_exclusive_bounds(self, db):
        op = IndexScanOp(
            "t", "t_b", "t", SCHEMA,
            low=(3,), high=(5,), low_inclusive=False, high_inclusive=False,
        )
        rows = run(op, db)
        assert rows and all(row[1] == 4 for row in rows)

    def test_descending(self, db):
        op = IndexScanOp("t", "t_b", "t", SCHEMA, descending=True)
        values = [row[1] for row in run(op, db)]
        assert values == sorted(values, reverse=True)


class TestFilter:
    def test_filters(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        predicate = Comparison(ComparisonOp.EQ, TB, lit(3))
        rows = run(FilterOp(scan, predicate), db)
        assert rows and all(row[1] == 3 for row in rows)


class TestProject:
    def test_column_projection(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        op = ProjectOp(scan, [TB], RowSchema([TB]))
        rows = run(op, db)
        assert all(len(row) == 1 for row in rows)

    def test_computed_projection(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        double = Arithmetic(ArithmeticOp.MUL, TA, lit(2))
        op = ProjectOp(scan, [double], RowSchema([col("", "d")]))
        rows = run(op, db)
        assert rows[5][0] == 10

    def test_arity_mismatch(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        with pytest.raises(ExecutionError):
            ProjectOp(scan, [TA, TB], RowSchema([TA]))


class TestSort:
    def test_ascending(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        rows = run(SortOp(scan, OrderSpec.of(TB)), db)
        values = [row[1] for row in rows]
        assert values == sorted(values)

    def test_descending_and_secondary(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        rows = run(SortOp(scan, OrderSpec((desc(TB), desc(TA)))), db)
        keys = [(row[1], row[0]) for row in rows]
        assert keys == sorted(keys, reverse=True)

    def test_empty_order_rejected(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        with pytest.raises(ExecutionError):
            SortOp(scan, OrderSpec())

    def test_spill_accounting(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        context = ExecutionContext(db, sort_memory_rows=10)
        list(SortOp(scan, OrderSpec.of(TB)).rows(context))
        assert context.spill_pages > 0
        assert context.rows_sorted == 50


class TestSortMergeBoundaries:
    """External-merge edge cases around the ``memory_rows`` threshold.

    The slice-fill loop must land run boundaries exactly at
    ``memory_rows`` regardless of batch size, and every engine must
    produce byte-identical output.
    """

    ORDER = OrderSpec((desc(TB), desc(TA)))

    def expected(self, db):
        rows = TableScanOp("t", "t", SCHEMA).execute(ExecutionContext(db))
        return sorted(rows, key=lambda row: (row[1], row[0]), reverse=True)

    def sort_rows(self, db, mode, memory_rows, batch_size=0):
        context = ExecutionContext(
            db,
            mode=mode,
            sort_memory_rows=memory_rows,
            batch_size=batch_size,
        )
        scan = TableScanOp("t", "t", SCHEMA)
        rows = SortOp(scan, self.ORDER).execute(context)
        return rows, context

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_input_exactly_memory_rows(self, db, mode):
        # 50 input rows == memory_rows: exactly one full run spills.
        rows, context = self.sort_rows(db, mode, memory_rows=50)
        assert rows == self.expected(db)
        assert context.spill_pages == 2  # one run: write + read pass

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_input_one_row_over_memory(self, db, mode):
        # 50 rows with memory_rows=49: a full run plus a one-row run.
        rows, context = self.sort_rows(db, mode, memory_rows=49)
        assert rows == self.expected(db)
        assert context.spill_pages == 4  # two runs charged

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_batch_straddles_run_boundary(self, db, mode):
        # batch_size=20, memory_rows=30: the second batch (rows 20-39)
        # straddles the run boundary at row 30 and must split there.
        rows, context = self.sort_rows(
            db, mode, memory_rows=30, batch_size=20
        )
        assert rows == self.expected(db)
        assert context.rows_sorted == 50

    def test_byte_identical_across_engines(self, db):
        outputs = {
            mode: self.sort_rows(db, mode, memory_rows=30, batch_size=7)[0]
            for mode in ALL_MODES
        }
        assert outputs[MODE_VECTOR] == outputs[MODE_INTERPRETED]


@pytest.fixture
def grouped_db():
    """Table with a low-cardinality leading column and suffix ties.

    ``g`` takes 10 distinct values (5 rows each); ``x`` collides within
    groups so per-group stability is observable through ``id``.
    """
    database = Database()
    database.create_table(
        TableSchema(
            "u",
            [
                Column("id", INTEGER, nullable=False),
                Column("g", INTEGER),
                Column("x", INTEGER),
            ],
            primary_key=("id",),
        ),
        rows=[(i, i % 10, (i * 3) % 4) for i in range(50)],
    )
    database.create_index(Index.on("u_g", "u", ["g"]))
    return database


UID, UG, UX = col("u", "id"), col("u", "g"), col("u", "x")
USCHEMA = RowSchema([UID, UG, UX])
UORDER = OrderSpec.of(UG, UX)


def grouped_scan():
    """Index scan delivering rows in ``g`` order — a sorted prefix."""
    return IndexScanOp("u", "u_g", "u", USCHEMA)


class TestPartialSort:
    def test_byte_identical_to_full_sort(self, grouped_db):
        full = SortOp(grouped_scan(), UORDER).execute(
            ExecutionContext(grouped_db)
        )
        partial = PartialSortOp(grouped_scan(), UORDER, 1).execute(
            ExecutionContext(grouped_db)
        )
        # Groups stream in prefix order; stable suffix sort within each
        # group reproduces the full stable sort byte-for-byte —
        # including the id order of (g, x) ties.
        assert partial == full

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_engines_byte_identical(self, grouped_db, mode):
        reference = PartialSortOp(grouped_scan(), UORDER, 1).execute(
            ExecutionContext(grouped_db, mode=MODE_INTERPRETED)
        )
        rows = PartialSortOp(grouped_scan(), UORDER, 1).execute(
            ExecutionContext(grouped_db, mode=mode, batch_size=7)
        )
        assert rows == reference

    def test_streams_one_group_at_a_time(self, grouped_db):
        # First batch arrives after buffering only one group, not the
        # whole input: with batch_size 5 (== group size) the first pull
        # must not have consumed all 50 input rows.
        context = ExecutionContext(grouped_db, batch_size=5)
        op = PartialSortOp(grouped_scan(), UORDER, 1)
        batches = op.batches(context)
        first = next(batches)
        assert len(first) == 5
        scan_metrics = [
            m for m in context.metrics.values()
            if m.label.startswith("index scan")
        ]
        assert scan_metrics and scan_metrics[0].rows < 50

    def test_group_metrics_and_counters(self, grouped_db):
        from repro.core.instrument import COUNTERS

        sorts_before = COUNTERS.get("exec.partial_sorts", 0)
        rows_before = COUNTERS.get("exec.rows_partial_sorted", 0)
        context = ExecutionContext(grouped_db)
        op = PartialSortOp(grouped_scan(), UORDER, 1)
        op.execute(context)
        metrics = context.metrics[op]
        assert metrics.groups == 10
        assert metrics.sorted_rows == 50
        assert context.rows_partial_sorted == 50
        assert context.rows_sorted == 0
        assert COUNTERS["exec.partial_sorts"] == sorts_before + 1
        assert COUNTERS["exec.rows_partial_sorted"] == rows_before + 50
        assert "groups=10" in metrics.render()
        assert "sorted=50" in metrics.render()

    def test_per_group_spill(self, grouped_db):
        # Groups of 5 with sort memory 3: every group spills, and the
        # merged output still matches the full sort.
        context = ExecutionContext(grouped_db, sort_memory_rows=3)
        op = PartialSortOp(grouped_scan(), UORDER, 1)
        rows = op.execute(context)
        full = SortOp(grouped_scan(), UORDER).execute(
            ExecutionContext(grouped_db)
        )
        assert rows == full
        assert context.spill_pages > 0
        assert context.metrics[op].spill_pages == context.spill_pages

    def test_checks_token_at_group_boundaries(self, grouped_db):
        class CountingToken(CancelToken):
            checks = 0

            def check(self):
                CountingToken.checks += 1
                super().check()

        CountingToken.checks = 0
        context = ExecutionContext(
            grouped_db, cancel_token=CountingToken(), batch_size=1024
        )
        PartialSortOp(grouped_scan(), UORDER, 1).execute(context)
        # One pull spans all 10 groups (batch_size > input), so the
        # wrapper checkpoints alone would poll only a handful of times;
        # the per-group-boundary polls push the count past group count.
        assert CountingToken.checks > 9

    def test_cancellation_stops_mid_stream(self, grouped_db):
        class TrippingToken(CancelToken):
            def __init__(self, after):
                super().__init__()
                self.remaining_checks = after

            def check(self):
                self.remaining_checks -= 1
                if self.remaining_checks <= 0:
                    self.cancel("test trip")
                super().check()

        context = ExecutionContext(
            grouped_db, cancel_token=TrippingToken(6), batch_size=1024
        )
        with pytest.raises(QueryCancelled):
            PartialSortOp(grouped_scan(), UORDER, 1).execute(context)

    def test_limit_truncates_each_group(self, grouped_db):
        limited = PartialSortOp(grouped_scan(), UORDER, 1, limit=2).execute(
            ExecutionContext(grouped_db)
        )
        full = PartialSortOp(grouped_scan(), UORDER, 1).execute(
            ExecutionContext(grouped_db)
        )
        expected = []
        for start in range(0, 50, 5):  # 10 groups of 5, already sorted
            expected.extend(full[start : start + 2])
        assert limited == expected
        # The global first-k rows are intact: a LIMIT above sees
        # exactly what it would see over the full sort.
        assert limited[:2] == full[:2]

    def test_validation(self, grouped_db):
        scan = grouped_scan()
        with pytest.raises(ExecutionError):
            PartialSortOp(scan, OrderSpec(), 0)
        with pytest.raises(ExecutionError):
            PartialSortOp(scan, UORDER, 0)
        with pytest.raises(ExecutionError):
            PartialSortOp(scan, UORDER, 2)  # whole order: nothing to sort
        with pytest.raises(ExecutionError):
            PartialSortOp(scan, UORDER, 1, limit=0)


class TestMaterialize:
    def test_repeated_iteration(self, db):
        op = MaterializeOp(TableScanOp("t", "t", SCHEMA))
        context = ExecutionContext(db)
        first = list(op.rows(context))
        db.reset_io()
        second = list(op.rows(context))
        assert first == second
        # Second pass reads the buffer, not the heap.
        assert db.buffer_pool.stats.total_accesses == 0


class TestExplain:
    def test_tree_rendering(self, db):
        scan = TableScanOp("t", "t", SCHEMA)
        op = SortOp(FilterOp(scan, Comparison(ComparisonOp.GT, TA, lit(0))),
                    OrderSpec.of(TB))
        text = op.explain()
        assert "sort" in text
        assert "filter" in text
        assert "table scan" in text
