"""Leaf/unary physical operators."""

import datetime
import math
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro import Column, Database, Index, TableSchema
from repro.catalog import hash_spec
from repro.core import OrderSpec
from repro.core.ordering import OrderKey, SortDirection, asc, desc
from repro.errors import ExecutionError, QueryCancelled, TypeSystemError
from repro.executor import (
    MODE_INTERPRETED,
    MODE_VECTOR,
    ExecutionContext,
    FilterOp,
    HashDistinctOp,
    HashGroupByOp,
    IndexScanOp,
    PhysicalOperator,
    ProjectOp,
    SortedDistinctOp,
    SortedGroupByOp,
    SortOp,
    TableScanOp,
)
from repro.executor.context import CancelToken
from repro.executor.exchange import MergeExchangeOp
from repro.executor.joins import MergeJoinOp
from repro.executor.operators import (
    LimitOp,
    MaterializeOp,
    group_markers,
    sort_key_plan,
)
from repro.expr import (
    Aggregate,
    AggregateKind,
    Arithmetic,
    Comparison,
    ComparisonOp,
    RowSchema,
    col,
    lit,
)
from repro.expr.nodes import ArithmeticOp
from repro.expr.vector import RowBlock
from repro.sqltypes import (
    INTEGER,
    NULL,
    group_key,
    is_null,
    ordering_key_column,
    sort_key,
    sort_key_column,
    sort_key_elements,
)
from repro.storage.database import encode_index_key

TA, TB = col("t", "a"), col("t", "b")
SCHEMA = RowSchema([TA, TB])
S_SCHEMA = RowSchema([col("s", "a"), col("s", "b")])

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

    def test_partitioned_index_needs_a_partition(self):
        database = TestIndexScanPageAccounting.build(64, partitioned=True)
        with pytest.raises(ExecutionError, match="partition"):
            run(IndexScanOp("s", "s_a", "s", S_SCHEMA), database)


class TestIndexScanPageAccounting:
    """An index scan charges each block's page run (descent, leaf steps,
    heap pages) with one ``access_run``. From a cold pool far smaller
    than the table — where the *order* of accesses decides what is
    evicted — both engines must return the same rows and ``IoStats``,
    and a single scan must charge what the entry-at-a-time walk
    (``scan_range`` plus one ``fetch`` per RID) charges."""

    @staticmethod
    def build(pool_pages, partitioned=False):
        rng = random.Random(28)
        database = Database(buffer_pool_pages=pool_pages)
        database.create_table(
            TableSchema(
                "s",
                [Column("a", INTEGER), Column("b", INTEGER)],
                partitioning=hash_spec(["a"], 3) if partitioned else None,
            ),
            rows=[(rng.randint(0, 400), rng.randint(0, 5)) for _ in range(6000)],
        )
        database.create_index(Index.on("s_a", "s", ["a"]))
        return database

    @staticmethod
    def scan(partition=None, **bounds):
        return IndexScanOp("s", "s_a", "s", S_SCHEMA, partition=partition, **bounds)

    @staticmethod
    def walked_stats(database, operator):
        """Cold-pool ``IoStats`` of the entry-at-a-time walk."""
        store = database.store("s")
        tree = database.index_tree("s_a")
        if operator.partition is not None:
            tree = tree.partition(operator.partition)
        low, high = (
            bound and encode_index_key(bound, (SortDirection.ASC,))
            for bound in (operator.low, operator.high)
        )
        database.reset_io(cold=True)
        for _key, rid in tree.scan_range(
            low,
            high,
            operator.low_inclusive,
            operator.high_inclusive,
            operator.descending,
        ):
            store.heap.fetch(rid)
        return database.buffer_pool.stats

    @pytest.mark.parametrize(
        "shape", ["full", "backward_bounded", "partition", "merge", "limit"]
    )
    @pytest.mark.parametrize("pool_pages", [3, 2048])
    def test_engines_charge_the_same_pages(self, shape, pool_pages):
        database = self.build(
            pool_pages, partitioned=shape in ("partition", "merge")
        )
        heap = database.store("s").heap
        assert heap.page_count > 3, "a 3-page pool must evict"
        operator = {
            "full": lambda: self.scan(),
            "backward_bounded": lambda: self.scan(
                low=(50,), high=(300,), high_inclusive=False, descending=True
            ),
            "partition": lambda: self.scan(partition=1),
            "merge": lambda: MergeExchangeOp(
                [self.scan(partition=part) for part in range(3)],
                S_SCHEMA,
                OrderSpec.of(col("s", "a")),
            ),
            "limit": lambda: LimitOp(self.scan(), 100),
        }[shape]()
        outcomes = {}
        for mode in ALL_MODES:
            database.reset_io(cold=True)
            context = ExecutionContext(database, mode=mode, batch_size=64)
            outcomes[mode] = (operator.execute(context), database.buffer_pool.stats)
        rows, stats = outcomes[MODE_VECTOR]
        assert outcomes[MODE_INTERPRETED] == (rows, stats)
        keys = [row[0] for row in rows]
        assert keys == sorted(keys, reverse=shape == "backward_bounded")
        if shape == "limit":
            # Two 64-row blocks are fetched, not the table.
            assert len(rows) == 100 and stats.total_accesses < 200
        elif shape != "merge":
            assert stats == self.walked_stats(database, operator)
        if pool_pages == 3 and shape != "limit":
            assert stats.total_misses > heap.page_count


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
        op = SortOp(scan, OrderSpec.of(TB))
        list(op.rows(context))
        assert context.spill_pages > 0
        assert context.metrics[op].sorted_rows == 50

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_desc_keys_build_no_reversed_wrapper(self, monkeypatch, mode):
        # The direction is list.sort's reverse: no _Reversed key is
        # built, for bare columns (a) or census-keyed ones (b: NULL,
        # int, Decimal, float), in any sort configuration.
        from repro.sqltypes import values

        mixed = [None, 2, Decimal("1.5"), 2.0, 1]
        rows = [(i // 4, mixed[i % 5]) for i in range(20)]  # a ascending
        configurations = [
            (OrderSpec((desc(TB), desc(TA))), 0, None),
            (OrderSpec((desc(TB), asc(TA))), 0, 3),
            (OrderSpec((asc(TA), desc(TB))), 1, None),
            (OrderSpec((asc(TA), desc(TB))), 1, 2),
        ]
        expected = [
            _sorted_reference(rows, sort_key_plan(SCHEMA, order), *rest)
            for order, *rest in configurations
        ]

        def refuse(wrapper, key):
            raise AssertionError("SortOp built a _Reversed key")

        monkeypatch.setattr(values._Reversed, "__init__", refuse)
        for (order, prefix, limit), reference in zip(configurations, expected):
            child = _Blocks(SCHEMA, [rows[:7], rows[7:]])
            op = SortOp(child, order, prefix, limit=limit)
            context = ExecutionContext(None, mode=mode, sort_memory_rows=6)
            assert op.execute(context) == reference


class _Day(datetime.date):
    """A date subclass: sort_key keys it by ordinal like a plain date."""


# Every kind of value a key column can hold, each drawn from a few
# values with cross-kind ties (1 == 1.0 == Decimal('1.00'),
# 0 == -0.0, a date == the _Day of the same ordinal, True == 1 in
# Python but not in sort_key).
_KEY_SCALARS = {
    "int": st.integers(-2, 2),
    "bool": st.booleans(),
    "float": st.sampled_from([0.1, -0.0, 0.0, 1.0, 2.5, -1.5]),
    "decimal": st.sampled_from(
        [
            Decimal("0.1"),
            Decimal("0.10"),
            Decimal("1"),
            Decimal("1.00"),
            Decimal("-0"),
            Decimal("2.5"),
            Decimal("1E+1"),
        ]
    ),
    "str": st.sampled_from(["", "a", "A", "b"]),
    "date": st.sampled_from(
        [datetime.date(1995, 3, 1), datetime.date(1995, 3, 2)]
    ),
    "day": st.sampled_from([_Day(1995, 3, 1), _Day(1996, 1, 1)]),
}


@st.composite
def _key_column(draw, size):
    """A column of one kind (the census fast paths) or a mix, with or
    without None and the NULL marker."""
    kinds = draw(
        st.lists(st.sampled_from(sorted(_KEY_SCALARS)), min_size=1, max_size=3)
    )
    nulls = draw(st.sampled_from([(), (None,), (None, NULL)]))
    element = st.one_of(
        [_KEY_SCALARS[kind] for kind in kinds]
        + [st.just(null) for null in nulls]
    )
    return draw(st.lists(element, min_size=size, max_size=size))


@st.composite
def _key_rows(draw):
    size = draw(st.integers(0, 12))
    width = draw(st.integers(1, 3))
    columns = [draw(_key_column(size)) for _ in range(width)]
    return list(zip(*columns)), width


def _classes(markers):
    """Each marker's class number, numbered by first occurrence — what a
    hash group-by's dict makes of them."""
    first = {}
    return [first.setdefault(marker, len(first)) for marker in markers]


def _sort_key_markers(rows, positions):
    return [tuple(sort_key(row[p]) for p in positions) for row in rows]


def _nested_keys(rows, plan):
    """Each row's nested per-value sort-key tuple under ``plan``."""
    return [tuple(sort_key(row[p], d) for p, d in plan) for row in rows]


def _tagged(rows):
    """``rows`` with each row's position appended, so equal key rows
    stay distinguishable in the output."""
    return [row + (tag,) for tag, row in enumerate(rows)]


def _stable_sorted(rows, plan):
    keys = _nested_keys(rows, plan)
    return [rows[i] for i in sorted(range(len(rows)), key=keys.__getitem__)]


def _blocks_of(schema, rows, size):
    blocks = [rows[i : i + size] for i in range(0, len(rows), size)]
    return _Blocks(schema, blocks)


def _key_schema(alias, width):
    return RowSchema(
        [col(alias, f"k{i}") for i in range(width)] + [col(alias, "tag")]
    )


@st.composite
def _merge_sides(draw):
    """Two row lists of one key width, each sorted ascending by its
    nested sort keys (what a merge join's inputs deliver)."""
    width = draw(st.integers(1, 3))
    sides = []
    for _side in range(2):
        size = draw(st.integers(0, 10))
        columns = [draw(_key_column(size)) for _ in range(width)]
        rows = _tagged(list(zip(*columns)))
        sides.append(_stable_sorted(rows, [(p, False) for p in range(width)]))
    return sides[0], sides[1], width


@st.composite
def _exchange_streams(draw):
    """2-3 partition streams, each stable-sorted by a mixed-direction
    order over 1-3 key columns, and that order's directions."""
    width = draw(st.integers(1, 3))
    descending = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    plan = list(zip(range(width), descending))
    streams = []
    for partition in range(draw(st.integers(2, 3))):
        size = draw(st.integers(0, 8))
        columns = [draw(_key_column(size)) for _ in range(width)]
        rows = [row + ((partition, i),) for i, row in enumerate(zip(*columns))]
        streams.append(_stable_sorted(rows, plan))
    return streams, plan


class TestKeyContracts:
    """The column key builders are per-value ``sort_key`` exactly; merge
    joins and the merge exchange, which compare flat index keys, order
    and match rows as nested per-value ``sort_key`` tuples do; and
    ``group_markers`` has exactly the classes of ``sort_key`` markers —
    whatever mix of types a column holds."""

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 16).flatmap(_key_column), st.booleans())
    def test_sort_key_columns_equal_per_value_sort_key(
        self, column, descending
    ):
        assert sort_key_column(column, descending) == [
            sort_key(value, descending) for value in column
        ]
        bands, values = sort_key_elements(column)
        assert list(zip(bands, values)) == list(map(sort_key, column))

    @pytest.mark.parametrize("mode", ALL_MODES)
    @settings(max_examples=100, deadline=None)
    @given(_merge_sides(), st.integers(1, 4))
    def test_merge_join_is_a_nested_loop_over_sort_keys(
        self, mode, sides, block
    ):
        outer_rows, inner_rows, width = sides
        outer_schema = _key_schema("o", width)
        inner_schema = _key_schema("i", width)
        op = MergeJoinOp(
            _blocks_of(outer_schema, outer_rows, block),
            _blocks_of(inner_schema, inner_rows, block),
            outer_schema.columns[:width],
            inner_schema.columns[:width],
        )
        plan = [(p, False) for p in range(width)]
        outer_keys = _nested_keys(outer_rows, plan)
        inner_keys = _nested_keys(inner_rows, plan)
        expected = [
            outer + inner
            for outer, outer_key in zip(outer_rows, outer_keys)
            if not any(map(is_null, outer[:width]))
            for inner, inner_key in zip(inner_rows, inner_keys)
            if inner_key == outer_key
        ]
        context = ExecutionContext(None, mode=mode, batch_size=block)
        assert op.execute(context) == expected

    @pytest.mark.parametrize("mode", ALL_MODES)
    @settings(max_examples=100, deadline=None)
    @given(_exchange_streams(), st.integers(1, 4))
    def test_merge_exchange_is_a_stable_sort_by_sort_keys(
        self, mode, drawn, block
    ):
        streams, plan = drawn
        width = len(plan)
        schema = _key_schema("t", width)
        order = OrderSpec(
            OrderKey(
                schema.columns[p],
                SortDirection.DESC if descending else SortDirection.ASC,
            )
            for p, descending in plan
        )
        op = MergeExchangeOp(
            [_blocks_of(schema, rows, block) for rows in streams],
            schema,
            order,
        )
        rows = [row for stream in streams for row in stream]
        expected = _stable_sorted(rows, plan)
        context = ExecutionContext(None, mode=mode, batch_size=block)
        assert op.execute(context) == expected

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 16).flatmap(_key_column), st.booleans())
    def test_ordering_keys_sort_like_sort_key(self, column, descending):
        # Positions sorted by the keys with reverse=descending land as
        # a stable sort by sort_key(v, descending) puts them, ties
        # between distinct values (1, 1.0, Decimal('1.00')) included.
        keys = ordering_key_column(column)
        positions = range(len(column))
        order = sorted(positions, key=keys.__getitem__, reverse=descending)
        assert order == sorted(
            positions, key=lambda i: sort_key(column[i], descending)
        )

    @settings(max_examples=150, deadline=None)
    @given(_key_rows())
    def test_group_markers_have_sort_key_classes(self, drawn):
        rows, width = drawn
        for positions in [[p] for p in range(width)] + [list(range(width))]:
            markers, _ = group_markers(RowBlock(rows), positions)
            reference = _sort_key_markers(rows, positions)
            assert _classes(markers) == _classes(reference)
            # Adjacent comparison, what sorted group-by and the sort's
            # prefix boundaries do, agrees too.
            assert [a == b for a, b in zip(markers, markers[1:])] == [
                a == b for a, b in zip(reference, reference[1:])
            ]

    def test_plain_values_are_their_own_markers(self):
        for value in ("A", 7, Decimal("1.50"), datetime.date(1995, 3, 1), None):
            assert group_key(value) is value
        column = ["A", None, "b"]
        assert group_markers(RowBlock([(v,) for v in column]), [0])[0] == column
        assert group_key(NULL) is None
        assert group_key(True) != group_key(1)
        assert group_key(_Day(1995, 3, 1)) == datetime.date(1995, 3, 1)

    def test_unsortable_value_raises_like_sort_key(self):
        with pytest.raises(TypeSystemError):
            sort_key(object())
        with pytest.raises(TypeSystemError):
            group_key(object())
        with pytest.raises(TypeSystemError):
            group_markers(RowBlock([("a",), (object(),)]), [0])


class _Blocks(PhysicalOperator):
    """Replays fixed row blocks: the block boundaries are the test's."""

    def __init__(self, schema, blocks):
        super().__init__(schema)
        self._rows = blocks

    def _blocks(self, context):
        return (RowBlock(list(rows)) for rows in self._rows)


class TestMarkersAcrossBlocks:
    """A value's marker does not depend on its block: 'A' in an all-str
    block (its own marker column) and 'A' in a block holding NULLs
    (mapped through group_key) land in one group."""

    G = col("t", "g")
    BLOCKS = [[("a",), ("A",), ("A",)], [("A",), (None,), (NULL,)]]
    COUNT = [("n", Aggregate(AggregateKind.COUNT, None))]

    def grouped(self, operator_class, blocks, mode):
        child = _Blocks(RowSchema([self.G]), blocks)
        op = operator_class(child, [self.G], self.COUNT)
        return op.execute(ExecutionContext(None, mode=mode))

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("operator_class", [HashGroupByOp, SortedGroupByOp])
    def test_two_blocks_group_like_one(self, operator_class, mode):
        one_block = [[row for rows in self.BLOCKS for row in rows]]
        rows = self.grouped(operator_class, self.BLOCKS, mode)
        assert rows == self.grouped(operator_class, one_block, mode)
        assert rows == [("a", 1), ("A", 3), (None, 2)]

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize(
        "operator_class", [HashDistinctOp, SortedDistinctOp]
    )
    def test_two_blocks_distinct_like_one(self, operator_class, mode):
        child = _Blocks(RowSchema([self.G]), self.BLOCKS)
        rows = operator_class(child).execute(ExecutionContext(None, mode=mode))
        assert rows == [("a",), ("A",), (None,)]


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
        sorted_rows = [m.sorted_rows for m in context.metrics.values()]
        assert sorted(sorted_rows) == [0, 50]  # the scan and the sort

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
        partial = SortOp(grouped_scan(), UORDER, 1).execute(
            ExecutionContext(grouped_db)
        )
        # Groups stream in prefix order; stable suffix sort within each
        # group reproduces the full stable sort byte-for-byte —
        # including the id order of (g, x) ties.
        assert partial == full

    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_engines_byte_identical(self, grouped_db, mode):
        reference = SortOp(grouped_scan(), UORDER, 1).execute(
            ExecutionContext(grouped_db, mode=MODE_INTERPRETED)
        )
        rows = SortOp(grouped_scan(), UORDER, 1).execute(
            ExecutionContext(grouped_db, mode=mode, batch_size=7)
        )
        assert rows == reference

    def test_streams_one_group_at_a_time(self, grouped_db):
        # First batch arrives after buffering only one group, not the
        # whole input: with batch_size 5 (== group size) the first pull
        # must not have consumed all 50 input rows.
        context = ExecutionContext(grouped_db, batch_size=5)
        op = SortOp(grouped_scan(), UORDER, 1)
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
        full_before = COUNTERS.get("exec.rows_sorted", 0)
        context = ExecutionContext(grouped_db)
        op = SortOp(grouped_scan(), UORDER, 1)
        op.execute(context)
        metrics = context.metrics[op]
        assert metrics.groups == 10
        assert metrics.sorted_rows == 50
        assert COUNTERS.get("exec.rows_sorted", 0) == full_before
        assert COUNTERS["exec.partial_sorts"] == sorts_before + 1
        assert COUNTERS["exec.rows_partial_sorted"] == rows_before + 50
        assert "groups=10" in metrics.render()
        assert "sorted=50" in metrics.render()

    def test_per_group_spill(self, grouped_db):
        # Groups of 5 with sort memory 3: every group spills, and the
        # merged output still matches the full sort.
        context = ExecutionContext(grouped_db, sort_memory_rows=3)
        op = SortOp(grouped_scan(), UORDER, 1)
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
        SortOp(grouped_scan(), UORDER, 1).execute(context)
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
            SortOp(grouped_scan(), UORDER, 1).execute(context)

    def test_limit_truncates_each_group(self, grouped_db):
        limited = SortOp(grouped_scan(), UORDER, 1, limit=2).execute(
            ExecutionContext(grouped_db)
        )
        full = SortOp(grouped_scan(), UORDER, 1).execute(
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
            SortOp(scan, OrderSpec(), 0)
        with pytest.raises(ExecutionError):
            SortOp(scan, UORDER, -1)
        with pytest.raises(ExecutionError):
            SortOp(scan, UORDER, 2)  # whole order: nothing to sort
        with pytest.raises(ExecutionError):
            SortOp(scan, UORDER, 1, limit=0)
        # An empty prefix is the full sort.
        assert SortOp(scan, UORDER, 0).label() == f"sort {UORDER}"

    def test_limited_groups_never_spill(self, grouped_db):
        # Groups of 5 with sort memory 3: under a limit each group keeps
        # a bounded buffer, so nothing spills and each group still
        # yields its first rows of the full stable sort.
        context = ExecutionContext(grouped_db, sort_memory_rows=3)
        op = SortOp(grouped_scan(), UORDER, 1, limit=4)
        rows = op.execute(context)
        full = SortOp(grouped_scan(), UORDER).execute(
            ExecutionContext(grouped_db)
        )
        expected = []
        for start in range(0, 50, 5):
            expected.extend(full[start : start + 4])
        assert rows == expected
        assert context.spill_pages == 0
        assert context.metrics[op].spill_pages == 0
        assert context.metrics[op].groups == 10

    # Group sizes over blocks of 16 rows with sort memory 4: many small
    # groups per block, groups of 4-7 rows that straddle a block edge
    # (and spill), a group closed inside a block that spills, and a
    # spilling last group.
    GROUP_SIZES = [2, 1, 3, 2, 1, 3, 6, 1, 2, 3, 1, 2, 2, 5, 1, 3, 2, 4, 8]

    @pytest.mark.parametrize("batch_size", [7, 16, 1024])
    @pytest.mark.parametrize("mode", ALL_MODES)
    def test_closed_groups_sort_and_charge_as_one_group_each(
        self, mode, batch_size
    ):
        arrival = []
        for g, size in enumerate(self.GROUP_SIZES):
            for j in range(size):
                i = len(arrival)
                k = None if i % 5 == 0 else (i * 7) % 3
                arrival.append((i, g, k, [0.5, -0.0, 1.0][j % 3], i % 2 == 0))
        starts = range(0, len(arrival), batch_size)
        child = _Blocks(
            CENSUS_SCHEMA, [arrival[s : s + batch_size] for s in starts]
        )
        order = OrderSpec((asc(UG), desc(CK), asc(CF), desc(CB)))
        context = ExecutionContext(None, mode=mode, sort_memory_rows=4)
        op = SortOp(child, order, 1)
        rows = op.execute(context)
        plan = [(1, False), (2, True), (3, False), (4, True)]
        assert rows == _sorted_reference(arrival, plan, 1, None)
        metrics = context.metrics[op]
        assert metrics.groups == len(self.GROUP_SIZES)
        assert metrics.sorted_rows == len(arrival)
        spilled = sum(_spill_pages(size, 4) for size in self.GROUP_SIZES)
        assert metrics.spill_pages == context.spill_pages == spilled


class TestLimitedPartialSortEarlyExit:
    """``CostModel.sort`` prices a partial sort under a limit as reading
    only the ``ceil(k / r)`` groups of ``r`` rows the limit needs. Under
    ``LimitOp(k)`` the sort stops pulling there, give or take one input
    block: it must see the next group's first row to close a group."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=20),
        st.integers(min_value=1, max_value=5),
        st.sampled_from(ALL_MODES),
    )
    def test_reads_only_the_groups_the_limit_needs(
        self, groups, group_rows, k, batch_size, mode
    ):
        rows = [
            (i, i // group_rows, (i * 7) % 3)
            for i in range(groups * group_rows)
        ]
        starts = range(0, len(rows), batch_size)
        child = _Blocks(USCHEMA, [rows[s : s + batch_size] for s in starts])
        context = ExecutionContext(None, mode=mode, batch_size=batch_size)
        out = LimitOp(SortOp(child, UORDER, 1, limit=k), k).execute(context)
        emitted = context.metrics[child].rows
        assert emitted <= math.ceil(k / group_rows) * group_rows + batch_size
        full = _sorted_reference(rows, [(1, False), (2, False)], 0, None)
        assert out == full[:k]


def _sorted_reference(rows, order_plan, prefix_length, limit):
    """``sorted(rows, key=full key)``, truncated to ``limit`` rows per
    prefix group — what every SortOp configuration must return."""
    from repro.sqltypes import sort_key

    def key(row):
        return tuple(
            sort_key(row[position], descending)
            for position, descending in order_plan
        )

    ordered = sorted(rows, key=key)
    if limit is None:
        return ordered
    kept, counts = [], {}
    for row in ordered:
        prefix = key(row)[:prefix_length]
        if counts.get(prefix, 0) < limit:
            counts[prefix] = counts.get(prefix, 0) + 1
            kept.append(row)
    return kept


@pytest.fixture(scope="module")
def nullable_db():
    """Groups of uneven size on ``g`` (NULLs included), with NULLs and
    ties in the DESC suffix column ``x``."""
    import random

    rng = random.Random(25)
    rows = []
    for i in range(300):
        g = rng.choice([None, 0, 1, 2, 3, 4, 5, 6])
        x = rng.choice([None, 1, 2, 3, 4])
        rows.append((i, g, x))
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
        rows=rows,
    )
    database.create_index(Index.on("u_g", "u", ["g"]))
    return database


@pytest.fixture(scope="module")
def census_blocks():
    """One prefix group (``g`` is constant) in three blocks whose key
    column ``k`` differs in census: all int, int with a NULL, int with
    Decimal. A float column ``f`` and a bool column ``b`` follow, and
    ties run through every key, so stability shows through ``id``."""
    k_blocks = [
        [3, 1, 2, 3, 1, 2, 1],
        [2, None, 1, 3, None, 2, 1],
        [Decimal("2.0"), 1, Decimal("1.50"), 3, Decimal("3"), 2, 1],
    ]
    rows, blocks = [], []
    for values in k_blocks:
        start = len(rows)
        for k in values:
            i = len(rows)
            rows.append((i, 7, k, [0.5, -0.0, 1.0, 0.0][i % 4], i % 3 == 0))
        blocks.append(rows[start:])
    return blocks


CK, CF, CB = col("u", "k"), col("u", "f"), col("u", "b")
CENSUS_SCHEMA = RowSchema([UID, UG, CK, CF, CB])


def _spill_pages(group_rows, memory_rows):
    """What one group charges (``ExecutionContext.charge_spill``, write
    and read pass): each full run of ``memory_rows``, then the rest of
    a group that spilled."""
    full, rest = divmod(group_rows, memory_rows)
    runs = [memory_rows] * full + ([rest] if full and rest else [])
    return sum(2 * max(1, run // 64) for run in runs)


class TestSortConfigurations:
    """Every SortOp configuration equals the reference full stable sort
    (per-group truncated under a limit): prefix {0, 1} x limit
    {None, 3} x engine x batch size, over NULLs and a DESC key, and
    over one group whose blocks differ in census."""

    ORDER = OrderSpec((asc(UG), desc(UX)))
    PLAN = [(1, False), (2, True)]

    @pytest.mark.parametrize("batch_size", [1, 7, 4096])
    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("limit", [None, 3])
    @pytest.mark.parametrize("prefix_length", [0, 1])
    def test_equals_reference(
        self, nullable_db, prefix_length, limit, mode, batch_size
    ):
        context = ExecutionContext(
            nullable_db, mode=mode, batch_size=batch_size, sort_memory_rows=40
        )
        rows = SortOp(
            grouped_scan(), self.ORDER, prefix_length, limit=limit
        ).execute(context)
        # The index scan delivers g-order with ties in id order, so the
        # reference sees the same arrival order the operator does.
        arrival = grouped_scan().execute(ExecutionContext(nullable_db))
        assert rows == _sorted_reference(
            arrival, self.PLAN, prefix_length, limit
        )
        if limit is not None:
            assert context.spill_pages == 0

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("limit", [None, 3])
    @pytest.mark.parametrize("prefix_length", [0, 1])
    def test_one_group_of_several_censuses(
        self, census_blocks, prefix_length, limit, mode
    ):
        order = OrderSpec((asc(UG), desc(CK), asc(CF), desc(CB)))
        context = ExecutionContext(None, mode=mode, sort_memory_rows=5)
        child = _Blocks(CENSUS_SCHEMA, census_blocks)
        rows = SortOp(child, order, prefix_length, limit=limit).execute(
            context
        )
        arrival = [row for block in census_blocks for row in block]
        plan = [(1, False), (2, True), (3, False), (4, True)]
        assert rows == _sorted_reference(arrival, plan, prefix_length, limit)
        spilled = 0 if limit else _spill_pages(len(arrival), 5)
        assert context.spill_pages == spilled

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("limit", [1, 3, 20, 400])
    @pytest.mark.parametrize(
        "order, plan",
        [
            (OrderSpec((desc(UX),)), [(2, True)]),
            (OrderSpec((asc(UX),)), [(2, False)]),
            (OrderSpec((desc(UG), desc(UX))), [(1, True), (2, True)]),
            (OrderSpec((desc(UID),)), [(0, True)]),
            (OrderSpec((asc(UG), asc(UID))), [(1, False), (0, False)]),
        ],
    )
    def test_top_n_of_one_direction(self, nullable_db, order, plan, limit, mode):
        """A Top-N on keys of one direction keeps ties in arrival order
        and sorts NULLs high, over several blocks, with bare int keys
        and census-keyed ones."""
        context = ExecutionContext(nullable_db, mode=mode, batch_size=64)
        rows = SortOp(grouped_scan(), order, 0, limit=limit).execute(context)
        arrival = grouped_scan().execute(ExecutionContext(nullable_db))
        assert rows == _sorted_reference(arrival, plan, 0, limit)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("limit", [1, 3, 8])
    def test_limited_partial_sort_of_several_censuses(
        self, census_blocks, limit, mode
    ):
        order = OrderSpec((asc(UG), desc(CK), desc(CB)))
        context = ExecutionContext(None, mode=mode)
        child = _Blocks(CENSUS_SCHEMA, census_blocks)
        rows = SortOp(child, order, 1, limit=limit).execute(context)
        arrival = [row for block in census_blocks for row in block]
        plan = [(1, False), (2, True), (4, True)]
        assert rows == _sorted_reference(arrival, plan, 1, limit)


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
