"""Aggregation and DISTINCT operators."""

import datetime
import decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro import Column, Database, TableSchema
from repro.core import OrderSpec
from repro.executor import (
    MODE_INTERPRETED,
    MODE_VECTOR,
    ExecutionContext,
    HashDistinctOp,
    HashGroupByOp,
    PhysicalOperator,
    SortedDistinctOp,
    SortedGroupByOp,
    SortOp,
    TableScanOp,
)
from repro.executor.aggregate import _COUNT_STAR, _Accumulator
from repro.expr import Aggregate, AggregateKind, RowSchema, col, lit
from repro.expr.nodes import Arithmetic, ArithmeticOp
from repro.expr.vector import RowBlock, vector_projection_kernel
from repro.sqltypes import INTEGER, group_key
from repro.sqltypes.values import NULL

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

    @pytest.mark.parametrize("batch_size", [1, 3, 1024])
    def test_sorted_distinct_equals_the_row_loop(self, batch_size):
        # NULL and None are one marker, as are 2 and 2.0; runs of up to
        # five rows cross blocks of three.
        rows = [
            (0, None), (0, NULL), (0, None), (0, 2), (0, 2.0), (0, 2),
            (1, 2), (1, 2), (1, 2), (1, 2), (1, 2), (NULL, 1), (None, 1),
            (None, NULL), (None, None),
        ]
        kept, previous = [], None
        for row in rows:
            marker = tuple(map(group_key, row))
            if not kept or marker != previous:
                kept.append(row)
            previous = marker
        blocks = _split(rows, [batch_size] * (len(rows) // batch_size))
        op = SortedDistinctOp(_Blocks(blocks, SCHEMA))
        assert repr(op.execute(ExecutionContext(None))) == repr(kept)

    def test_hash_distinct(self, db):
        db.store("t").load([(1, 1), (1, 1), (2, 2)])
        rows = run(HashDistinctOp(scan()), db)
        assert sorted(rows) == [(1, 1), (2, 2)]

    def test_hash_distinct_with_nulls(self, db):
        db.store("t").load([(None, 1), (None, 1), (None, 2)])
        rows = run(HashDistinctOp(scan()), db)
        assert len(rows) == 2


# ----------------------------------------------------------------------
# Shared folds: SUM, AVG and COUNT over one argument fold once
# ----------------------------------------------------------------------

G1, G2, V = col("t", "g1"), col("t", "g2"), col("t", "v")
FOLD_SCHEMA = RowSchema([G1, G2, V])
# Every aggregate an argument's shared fold can serve, and the ones that
# keep their own accumulator.
FOLD_POOL = [
    Aggregate(kind, V, distinct)
    for kind in (AggregateKind.SUM, AggregateKind.AVG, AggregateKind.COUNT)
    for distinct in (False, True)
] + [
    Aggregate(AggregateKind.MIN, V),
    Aggregate(AggregateKind.MAX, V),
    Aggregate(AggregateKind.COUNT, None),
]
_VALUES = {
    "int": st.integers(-(10**6), 10**6),
    "decimal": st.sampled_from(
        [decimal.Decimal("0.05"), decimal.Decimal("1.00"), decimal.Decimal("-2.5")]
    ),
    "float": st.sampled_from([0.1, 0.2, -0.0, 1e16, -1e16, 2.5]),
    "null": st.sampled_from([None, NULL]),
}
# Families whose values add without raising (Decimal + float does not).
_FAMILIES = [
    ("int", "null"), ("decimal", "null"), ("float", "null"),
    ("int", "decimal", "null"), ("int", "float", "null"), ("int",),
]


class _Blocks(PhysicalOperator):
    """Replays fixed row blocks: the block boundaries are the test's."""

    def __init__(self, blocks, schema=FOLD_SCHEMA):
        super().__init__(schema)
        self._rows = blocks

    def _blocks(self, context):
        return (RowBlock(list(rows)) for rows in self._rows if rows)


def _reference(rows, width, aggregates):
    """One ``_Accumulator(kind, distinct).add`` per aggregate per row,
    groups in first-occurrence order (one group when ``width`` is 0)."""

    def fresh():
        return [_Accumulator(a.kind, a.distinct) for _name, a in aggregates]

    groups = {} if width else {(): fresh()}
    for row in rows:
        accumulators = groups.get(row[:width])
        if accumulators is None:
            accumulators = groups[row[:width]] = fresh()
        for accumulator, (_name, aggregate) in zip(accumulators, aggregates):
            accumulator.add(
                _COUNT_STAR if aggregate.argument is None else row[2]
            )
    return [
        key + tuple(accumulator.result() for accumulator in accumulators)
        for key, accumulators in groups.items()
    ]


def _grouped_order(rows, width):
    """``rows`` with equal group columns adjacent (NULLs last)."""
    return sorted(
        rows, key=lambda row: [(value is None, value or 0) for value in row[:width]]
    )


def _split(rows, sizes):
    blocks, start = [], 0
    for size in sizes:
        blocks.append(rows[start : start + size])
        start += size
    return blocks + [rows[start:]]


def check_shared_folds(rows, sizes, width, aggregates):
    named = [(f"a{i}", aggregate) for i, aggregate in enumerate(aggregates)]
    columns = [G1, G2][:width]
    for operator_class in (HashGroupByOp, SortedGroupByOp):
        ordered = rows if operator_class is HashGroupByOp else _grouped_order(
            rows, width
        )
        expected = repr(_reference(ordered, width, named))
        for mode in (MODE_INTERPRETED, MODE_VECTOR):
            op = operator_class(_Blocks(_split(ordered, sizes)), columns, named)
            got = op.execute(ExecutionContext(None, mode=mode))
            assert repr(got) == expected, (operator_class.__name__, mode)


@st.composite
def _fold_inputs(draw):
    """Rows of one value family, with few groups (each block's buckets
    fold whole) or mostly singleton groups (the per-row path)."""
    width = draw(st.integers(0, 2))
    singletons = draw(st.booleans())
    family = draw(st.sampled_from(_FAMILIES))
    value = st.one_of([_VALUES[name] for name in family])
    n = draw(st.integers(0, 40))
    rows = [
        (
            i if singletons else draw(st.sampled_from([0, 1, None])),
            draw(st.sampled_from([0, 1])),
            draw(value),
        )
        for i in range(n)
    ]
    sizes = draw(st.lists(st.integers(1, 16), max_size=3))
    aggregates = draw(st.lists(st.sampled_from(FOLD_POOL), min_size=1, max_size=7))
    return rows, sizes, width, aggregates


class TestSharedFolds:
    """SUM, AVG and COUNT over one argument share an accumulator slot;
    every operator, engine and path returns, by ``repr``, what one
    accumulator per aggregate returns."""

    @settings(max_examples=150, deadline=None)
    @given(_fold_inputs())
    def test_equals_one_accumulator_per_aggregate(self, drawn):
        check_shared_folds(*drawn)

    @pytest.mark.parametrize("width", [0, 1, 2])
    def test_bucket_path_with_a_one_row_bucket(self, width):
        # Buckets {0: 5 rows, 1: 1 row} in one 6-row block fold whole.
        values = [1, decimal.Decimal("0.5"), None, 2, NULL, 1]
        rows = [(0, 0, value) for value in values[:5]] + [(1, 1, values[5])]
        check_shared_folds(rows, [6], width, FOLD_POOL)

    def test_singleton_path(self):
        rows = [(i, 0, decimal.Decimal(i) / 4) for i in range(8)] + [(0, 0, None)]
        check_shared_folds(rows, [9], 1, FOLD_POOL)

    def test_slots(self):
        op = HashGroupByOp(
            _Blocks([]), [G1], [(f"a{i}", a) for i, a in enumerate(FOLD_POOL)]
        )
        # SUM / AVG / COUNT share one slot per DISTINCT flag.
        assert [slot for slot, _kind in op._reads] == [0, 1, 0, 1, 0, 1, 2, 3, 4]
        assert {a.kind for a in op._slots[:2]} == {AggregateKind.AVG}

    def test_a_literal_argument_shares_only_with_its_own_type(self):
        one, one_point_zero = (
            Aggregate(AggregateKind.SUM, Arithmetic(ArithmeticOp.ADD, V, lit(value)))
            for value in (1, decimal.Decimal("1.0"))
        )
        op = HashGroupByOp(_Blocks([]), [G1], [("a", one), ("b", one_point_zero)])
        assert len(op._slots) == 2

    def test_a_literal_argument_shares_only_with_its_own_scale(self):
        one_point_zero, one_point_zero_zero = (
            Arithmetic(ArithmeticOp.MUL, V, lit(decimal.Decimal(text)))
            for text in ("1.0", "1.00")
        )
        aggregates = [
            ("a", Aggregate(AggregateKind.SUM, one_point_zero)),
            ("b", Aggregate(AggregateKind.SUM, one_point_zero_zero)),
            ("c", Aggregate(AggregateKind.AVG, one_point_zero_zero)),
        ]
        op = HashGroupByOp(_Blocks([]), [G1], aggregates)
        assert [slot for slot, _kind in op._reads] == [0, 1, 1]
        rows = [(0, 0, 1), (0, 0, 3)]
        for mode in (MODE_INTERPRETED, MODE_VECTOR):
            op = HashGroupByOp(_Blocks([rows]), [G1], aggregates)
            got = op.execute(ExecutionContext(None, mode=mode))
            assert repr(got) == (
                "[(0, Decimal('4.0'), Decimal('4.00'), Decimal('2.00'))]"
            ), mode


class TestQ1FoldsFiveSlots:
    """scan_agg's TPC-D Q1 text: seven aggregates over three arguments
    and COUNT(*) build five accumulators per group and project four
    argument columns (one accumulator per aggregate built seven and
    projected six)."""

    @pytest.mark.parametrize("mode", [MODE_INTERPRETED, MODE_VECTOR])
    def test_q1_accumulators_and_projected_columns(
        self, tpcd_db, monkeypatch, mode
    ):
        from repro import run_query
        from repro.executor import aggregate as aggregate_module
        from tests.optimizer.perf_statements import seed1_statements

        built, projected = [], []
        init = _Accumulator.__init__

        def counting_init(self, kind, distinct):
            built.append(kind)
            init(self, kind, distinct)

        def spy_projection(expressions, schema):
            projected.append(len(expressions))
            return vector_projection_kernel(expressions, schema)

        monkeypatch.setattr(_Accumulator, "__init__", counting_init)
        monkeypatch.setattr(
            aggregate_module, "vector_projection_kernel", spy_projection
        )
        q1 = seed1_statements(tpcd_db, "scan_agg")["q1"]
        rows = run_query(tpcd_db, q1, mode=mode).rows
        assert rows and len(built) == 5 * len(rows)
        assert projected == ([4] if mode == MODE_VECTOR else [])


# ----------------------------------------------------------------------
# Sorted GROUP BY: closed runs fold column-wise, open runs carry
# ----------------------------------------------------------------------

SG, SX, SD, SM = (col("s", name) for name in ("g", "x", "d", "m"))
SORTED_SCHEMA = RowSchema([SG, SX, SD, SM])
# SUM / AVG / COUNT share x; COUNT alone over the DATE column d (its
# values never add); MIN / MAX over d (one type) and over m (one type
# or mixed, by block); a DISTINCT slot.
SORTED_POOL = [
    ("sum_x", Aggregate(AggregateKind.SUM, SX)),
    ("avg_x", Aggregate(AggregateKind.AVG, SX)),
    ("n_x", Aggregate(AggregateKind.COUNT, SX)),
    ("n_d", Aggregate(AggregateKind.COUNT, SD)),
    ("n", Aggregate(AggregateKind.COUNT, None)),
    ("lo_d", Aggregate(AggregateKind.MIN, SD)),
    ("hi_d", Aggregate(AggregateKind.MAX, SD)),
    ("lo_m", Aggregate(AggregateKind.MIN, SM)),
    ("hi_m", Aggregate(AggregateKind.MAX, SM)),
    ("sum_distinct_x", Aggregate(AggregateKind.SUM, SX, True)),
]
_FLOATS = st.sampled_from([0.1, 0.2, 0.3, -0.0, 1e16, -1e16, 2.5])
_DATES = st.dates(datetime.date(1995, 1, 1), datetime.date(1995, 1, 20))


@st.composite
def _sorted_group_inputs(draw):
    """Grouped rows cut into blocks of 1-8 or 1024 rows. Each block
    draws whether its values hold NULLs and whether ``m`` mixes int and
    float."""
    batch_size = draw(st.integers(1, 8) | st.just(1024))
    sizes = draw(st.lists(st.integers(1, 6), max_size=14))
    keys = [g for g, size in enumerate(sizes) for _ in range(size)]
    if keys and draw(st.booleans()):  # a NULL group sorts last
        keys = [None if g == keys[-1] else g for g in keys]
    blocks = []
    for start in range(0, len(keys), batch_size):
        nulls = st.sampled_from([None, NULL]) if draw(st.booleans()) else None
        mixed = draw(st.booleans())
        x, d = _FLOATS, _DATES
        m = st.integers(-5, 5) | (_FLOATS if mixed else st.integers(6, 9))
        if nulls is not None:
            x, d, m = x | nulls, d | nulls, m | nulls
        blocks.append(
            [
                (key, draw(x), draw(d), draw(m))
                for key in keys[start : start + batch_size]
            ]
        )
    aggregates = draw(st.permutations(SORTED_POOL[:-1]))
    aggregates = aggregates[: draw(st.integers(1, len(aggregates)))]
    if draw(st.integers(0, 3)) == 0:
        aggregates.append(SORTED_POOL[-1])
    return blocks, aggregates


class TestSortedGroupByBlocks:
    """Closed runs fold column-wise in ``vector`` mode, the runs open
    at a block's edges through carried accumulators; rows equal, by
    ``repr``, what the interpreted row loop returns."""

    @settings(max_examples=200, deadline=None)
    @given(_sorted_group_inputs())
    def test_vector_equals_interpreted(self, drawn):
        blocks, aggregates = drawn
        got = {}
        for mode in (MODE_INTERPRETED, MODE_VECTOR):
            op = SortedGroupByOp(
                _Blocks(blocks, SORTED_SCHEMA), [SG], aggregates
            )
            got[mode] = repr(op.execute(ExecutionContext(None, mode=mode)))
        assert got[MODE_VECTOR] == got[MODE_INTERPRETED]
