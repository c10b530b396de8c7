"""Vector predicate/value kernels vs the interpreter, leaf by leaf.

:mod:`repro.expr.vector` promises byte-identical semantics with the row
engines while reordering work. These tests pin the pieces that make
that promise hold: every leaf's True set matches the interpreter's,
cost ordering follows the selectivity estimates and is fixed when the
kernel is built, reordering is *disabled* the moment a term can raise,
OR's accepted-row bypass actually skips rows (counted by a spy on each
child), gather() is selection-exact on every batch shape, and the
accumulator's run folding is value-for-value identical to per-row adds.
"""

from __future__ import annotations

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ExpressionError
from repro.executor import ExecutionContext, PhysicalOperator, ProjectOp
from repro.executor.aggregate import _Accumulator
from repro.expr import (
    BooleanExpr,
    BooleanOp,
    CaseWhen,
    Comparison,
    ComparisonOp,
    DatePart,
    InList,
    IsNull,
    Not,
    RowSchema,
    col,
    evaluate,
    lit,
)
from repro.expr.nodes import AggregateKind, Arithmetic, ArithmeticOp
from repro.expr.vector import (
    ColumnBlock,
    JoinBlock,
    RowBlock,
    VectorFilter,
    clear_vector_cache,
    compile_vector_filter,
    reset_vector_stats,
    vector_projection_kernel,
    vector_stats,
    vector_value_kernel,
)
from repro.sqltypes.values import NULL
from tests.expr.term_spy import spy_on

X, Y = col("t", "x"), col("t", "y")
SCHEMA = RowSchema([X, Y])

ROWS = [
    (0, 5),
    (1, None),
    (None, 3),
    (3, 3),
    (4, 0),
    (None, None),
    (6, 2),
    (7, 7),
]


@pytest.fixture(autouse=True)
def _fresh_kernels():
    # Kernels are memoized per (expression, schema), and a memo hit
    # keeps the term order of the first compile: tests that assert
    # ordering or counters need a clean slate.
    clear_vector_cache()
    yield
    clear_vector_cache()


def reference_selection(expression, rows, schema=SCHEMA):
    return [
        i
        for i, row in enumerate(rows)
        if evaluate(expression, schema, row) is True
    ]


def assert_matches_interpreter(expression, rows=ROWS, schema=SCHEMA):
    kernel = VectorFilter(expression, schema)
    batch = RowBlock(list(rows))
    assert kernel(batch) == reference_selection(expression, rows, schema), (
        expression
    )


class TestLeafTruthTables:
    def test_compare_constant_all_ops(self):
        for op in ComparisonOp:
            assert_matches_interpreter(Comparison(op, X, lit(3)))

    def test_compare_constant_flipped(self):
        # constant <op> column folds into the same fast leaf with the
        # operator flipped; semantics must be the unflipped ones.
        for op in ComparisonOp:
            assert_matches_interpreter(Comparison(op, lit(3), X))

    def test_compare_columns(self):
        for op in ComparisonOp:
            assert_matches_interpreter(Comparison(op, X, Y))

    def test_is_null(self):
        assert_matches_interpreter(IsNull(X, negated=False))
        assert_matches_interpreter(IsNull(X, negated=True))

    def test_in_list(self):
        assert_matches_interpreter(InList(X, (lit(1), lit(3), lit(7))))
        assert_matches_interpreter(
            Not(InList(X, (lit(1), lit(3), lit(7))))
        )

    def test_mixed_numeric_comparison(self):
        rows = [(0.5, 1), (2, 1.5), (None, 1), (3, 3)]
        assert_matches_interpreter(Comparison(ComparisonOp.GT, X, lit(1)), rows)

    def test_not_and_or_compositions(self):
        a = Comparison(ComparisonOp.GT, X, lit(2))
        b = Comparison(ComparisonOp.LT, Y, lit(4))
        for expression in (
            BooleanExpr(BooleanOp.AND, (a, b)),
            BooleanExpr(BooleanOp.OR, (a, b)),
            Not(BooleanExpr(BooleanOp.AND, (a, b))),
            Not(BooleanExpr(BooleanOp.OR, (a, b))),
            BooleanExpr(BooleanOp.OR, (Not(a), IsNull(X, negated=False))),
        ):
            assert_matches_interpreter(expression)

    def test_rows_loop_equals_column_loop(self):
        # First call on a fresh RowBlock takes the rows-direct loop;
        # once the column is transposed the same kernel takes the
        # column loop. Same selection either way.
        expression = Comparison(ComparisonOp.GE, X, lit(3))
        kernel = VectorFilter(expression, SCHEMA)
        fresh = RowBlock(list(ROWS))
        via_rows = kernel(fresh)
        assert 0 not in fresh._columns  # rows loop: no transpose
        fresh.column(0)
        via_column = kernel(fresh)
        assert via_rows == via_column == reference_selection(
            expression, ROWS
        )


def run_order(kernel):
    return [term.expression for term in kernel.root.terms]


class TestCostOrdering:
    def test_and_orders_most_selective_first(self):
        cheap = Comparison(ComparisonOp.GT, X, lit(3))
        picky = Comparison(ComparisonOp.LT, Y, lit(4))
        expression = BooleanExpr(BooleanOp.AND, (cheap, picky))
        kernel = VectorFilter(
            expression, SCHEMA, selectivity={cheap: 0.9, picky: 0.1}.get
        )
        assert run_order(kernel) == [picky, cheap]
        flipped = VectorFilter(
            expression, SCHEMA, selectivity={cheap: 0.1, picky: 0.9}.get
        )
        assert run_order(flipped) == [cheap, picky]

    def test_or_orders_most_accepting_first(self):
        a = Comparison(ComparisonOp.GT, X, lit(3))
        b = Comparison(ComparisonOp.LT, Y, lit(4))
        expression = BooleanExpr(BooleanOp.OR, (a, b))
        kernel = VectorFilter(
            expression, SCHEMA, selectivity={a: 0.1, b: 0.9}.get
        )
        assert run_order(kernel) == [b, a]

    def test_unhinted_terms_rank_by_cost_alone(self):
        # No estimate is selectivity 0.5: equal-cost terms keep source
        # order, and a cheaper term moves ahead of a dearer one.
        a = Comparison(ComparisonOp.GT, X, lit(3))
        b = Comparison(ComparisonOp.LT, Y, lit(4))
        listed = InList(X, (lit(1), lit(3), lit(7)))
        assert run_order(
            VectorFilter(BooleanExpr(BooleanOp.AND, (a, b)), SCHEMA)
        ) == [a, b]
        assert run_order(
            VectorFilter(BooleanExpr(BooleanOp.AND, (listed, a)), SCHEMA)
        ) == [a, listed]

    def test_ordering_never_changes_result(self):
        a = Comparison(ComparisonOp.GT, X, lit(2))
        b = InList(Y, (lit(0), lit(3)))
        for op in (BooleanOp.AND, BooleanOp.OR):
            expression = BooleanExpr(op, (a, b))
            expected = reference_selection(expression, ROWS)
            orders = set()
            for hints in ({a: 0.05, b: 0.95}, {a: 0.95, b: 0.05}):
                kernel = VectorFilter(
                    expression, SCHEMA, selectivity=hints.get
                )
                orders.add(tuple(run_order(kernel)))
                assert kernel(RowBlock(list(ROWS))) == expected
            assert len(orders) == 2

    def test_raising_term_pins_source_order(self):
        # x + y > 3 can raise (arithmetic), so the conjunction must not
        # reorder even when hints would prefer to.
        raising = Comparison(
            ComparisonOp.GT,
            Arithmetic(ArithmeticOp.ADD, X, Y),
            lit(3),
        )
        safe = Comparison(ComparisonOp.LT, Y, lit(4))
        expression = BooleanExpr(BooleanOp.AND, (raising, safe))
        kernel = VectorFilter(
            expression, SCHEMA, selectivity={raising: 0.9, safe: 0.1}.get
        )
        assert not kernel.root.no_raise and not kernel.root.fast
        assert run_order(kernel) == [raising, safe]
        assert_matches_interpreter(expression)

    def test_two_raising_siblings_keep_source_order(self):
        # Two raising siblings stay block terms in source order; when a
        # column pass raises, the block re-runs through the interpreter,
        # so the error is the row-major one.
        left = Comparison(
            ComparisonOp.GT, Arithmetic(ArithmeticOp.ADD, X, Y), lit(3)
        )
        right = Comparison(
            ComparisonOp.LT, Arithmetic(ArithmeticOp.MUL, X, Y), lit(9)
        )
        expression = BooleanExpr(BooleanOp.AND, (left, right))
        kernel = VectorFilter(expression, SCHEMA)
        assert run_order(kernel) == [left, right]
        assert_matches_interpreter(expression)
        # Row 0 passes the left term and raises in the right one; row 1
        # raises in the left one. Column-at-a-time meets row 1's error
        # first, the interpreter row 0's.
        inf = Decimal("Infinity")
        rows = [(0, inf), (inf, -inf)]
        assert _outcome(lambda: kernel(RowBlock(rows))) == (
            "ExpressionError: cannot compute 0 * Decimal('Infinity')"
        )

    def test_or_bypass_skips_accepted_rows(self):
        # Rows the first disjunct accepts never reach the second.
        a = Comparison(ComparisonOp.GE, X, lit(0))  # accepts non-NULL x
        b = Comparison(ComparisonOp.LT, Y, lit(4))
        expression = BooleanExpr(BooleanOp.OR, (a, b))
        kernel = VectorFilter(
            expression, SCHEMA, selectivity={a: 0.9, b: 0.1}.get
        )
        assert run_order(kernel) == [a, b]
        first, second = spy_on(kernel)
        assert kernel(RowBlock(list(ROWS))) == reference_selection(
            expression, ROWS
        )
        accepted = len(reference_selection(a, ROWS))
        assert first.rows == len(ROWS)
        assert second.rows == len(ROWS) - accepted < first.rows

    def test_memo_kernel_keeps_its_order(self):
        a = Comparison(ComparisonOp.GT, X, lit(3))
        b = Comparison(ComparisonOp.LT, Y, lit(4))
        expression = BooleanExpr(BooleanOp.AND, (a, b))
        kernel = compile_vector_filter(
            expression, SCHEMA, {a: 0.9, b: 0.1}.get
        )
        assert compile_vector_filter(expression, SCHEMA) is kernel  # memo
        order = list(kernel.root.terms)
        for _ in range(20):
            kernel(RowBlock(list(ROWS)))
        assert kernel.root.terms == order
        assert run_order(kernel) == [b, a]


# The two shapes where term order decides the work (Kim/Ileri/Madden on
# disjunction order): the deciding term is written last, so source order
# makes every other term scan rows it would not have to see.
SHAPE_ROWS = [(i % 100, i % 7) for i in range(2000)]
WIDE_X = Comparison(ComparisonOp.GE, X, lit(5))  # 95% true
WIDE_Y = Comparison(ComparisonOp.LT, Y, lit(6))  # 6 in 7 true
RARE_X = Comparison(ComparisonOp.EQ, X, lit(42))  # 1% true
RARE_Y = Comparison(ComparisonOp.EQ, Y, lit(9))  # never true
SHAPE_HINTS = {WIDE_X: 0.95, WIDE_Y: 0.86, RARE_X: 0.01, RARE_Y: 0.01}


def _rows_per_term(expression, selectivity):
    """{term expression: rows it was handed} over one block, with the
    kernel's selection checked against the interpreter's."""
    kernel = VectorFilter(expression, SCHEMA, selectivity=selectivity)
    order = run_order(kernel)
    spies = spy_on(kernel)
    assert kernel(RowBlock(list(SHAPE_ROWS))) == reference_selection(
        expression, SHAPE_ROWS
    )
    return order, {
        expression: spy.rows for expression, spy in zip(order, spies)
    }


class TestIsolationShapes:
    def test_selective_conjunct_written_last_runs_first(self):
        expression = BooleanExpr(BooleanOp.AND, (WIDE_X, WIDE_Y, RARE_X))
        source_order, source = _rows_per_term(expression, None)
        hinted_order, hinted = _rows_per_term(expression, SHAPE_HINTS.get)
        assert source_order == [WIDE_X, WIDE_Y, RARE_X]
        assert hinted_order[0] == RARE_X
        assert hinted[RARE_X] == len(SHAPE_ROWS)
        for later in (WIDE_X, WIDE_Y):
            assert hinted[later] < source[later]
        assert sum(hinted.values()) < sum(source.values())

    def test_accepting_disjunct_written_last_runs_first(self):
        expression = BooleanExpr(BooleanOp.OR, (RARE_X, RARE_Y, WIDE_X))
        source_order, source = _rows_per_term(expression, None)
        hinted_order, hinted = _rows_per_term(expression, SHAPE_HINTS.get)
        assert source_order == [RARE_X, RARE_Y, WIDE_X]
        assert hinted_order[0] == WIDE_X
        assert hinted[WIDE_X] == len(SHAPE_ROWS)
        for later in (RARE_X, RARE_Y):
            assert hinted[later] < source[later]
        assert sum(hinted.values()) < sum(source.values())


class TestGather:
    def test_row_block_sparse_and_dense(self):
        sparse = [1, 4, 6]
        fresh = RowBlock(list(ROWS))
        assert fresh.gather(0, sparse) == [ROWS[i][0] for i in sparse]
        # The sparse path must not have transposed the whole column.
        assert 0 not in fresh._columns
        full = list(range(len(ROWS)))
        assert list(fresh.gather(0, full)) == [row[0] for row in ROWS]
        # Dense gather transposes once and aliases thereafter.
        assert fresh.gather(0, full) is fresh._columns[0]
        assert fresh.gather(0, sparse) == [ROWS[i][0] for i in sparse]

    def test_column_block_gather(self):
        columns = [[r[0] for r in ROWS], [r[1] for r in ROWS]]
        block = ColumnBlock(columns, len(ROWS))
        assert list(block.gather(1, [0, 3, 7])) == [5, 3, 7]
        assert list(block.gather(1, list(range(len(ROWS))))) == columns[1]

    def test_join_block_gather_with_repeated_outer_indices(self):
        # Join output repeats outer rows; gather must follow the
        # indirection instead of treating out_index as a selection.
        outer = RowBlock([(10, 11), (20, 21), (30, 31)])
        out_index = [0, 0, 2, 2, 2]
        inner_rows = [(f"i{j}",) for j in range(5)]
        block = JoinBlock(outer, 2, out_index, inner_rows)
        full = list(range(5))
        assert list(block.gather(0, full)) == [10, 10, 30, 30, 30]
        assert list(block.gather(2, full)) == ["i0", "i1", "i2", "i3", "i4"]
        sparse = [1, 4]
        assert list(block.gather(0, sparse)) == [10, 30]
        assert list(block.gather(1, sparse)) == [11, 31]
        assert list(block.gather(2, sparse)) == ["i1", "i4"]
        assert block.materialize() == [
            (10, 11, "i0"),
            (10, 11, "i1"),
            (30, 31, "i2"),
            (30, 31, "i3"),
            (30, 31, "i4"),
        ]

    def test_value_kernel_matches_interpreter(self):
        expressions = (
            X,
            Arithmetic(ArithmeticOp.ADD, X, Y),
            Arithmetic(ArithmeticOp.MUL, X, lit(2)),
            lit(7),
        )
        batch = RowBlock(list(ROWS))
        sel = [0, 3, 4, 6, 7]
        for expression in expressions:
            kernel = vector_value_kernel(expression, SCHEMA)
            expected = [
                evaluate(expression, SCHEMA, ROWS[i]) for i in sel
            ]
            assert list(kernel(batch, sel)) == expected, expression


class TestAccumulatorRunFolding:
    def run_vs_add(self, kind, values, distinct=False, chunk=3):
        per_row = _Accumulator(kind, distinct)
        for value in values:
            per_row.add(value)
        folded = _Accumulator(kind, distinct)
        for start in range(0, len(values), chunk):
            folded.add_run(values[start : start + chunk])
        assert folded.result() == per_row.result()
        # Exact object-level equality for floats: same fold order means
        # bit-identical sums, not just approximately equal ones.
        assert repr(folded.result()) == repr(per_row.result())
        return folded.result()

    def test_sum_float_fold_order(self):
        values = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 0.7, None, 0.1]
        self.run_vs_add(AggregateKind.SUM, values)
        self.run_vs_add(AggregateKind.AVG, values)

    def test_nulls_and_sentinel(self):
        values = [None, NULL, 5, None, 3, NULL]
        assert self.run_vs_add(AggregateKind.SUM, values) == 8
        assert self.run_vs_add(AggregateKind.MIN, values) == 3

    def test_min_max_ties_keep_first(self):
        # Decimal('1.0') and Decimal('1.00') tie under sort_key; the
        # strict < / > comparison must keep the first-seen value.
        import decimal

        values = [decimal.Decimal("1.0"), decimal.Decimal("1.00")]
        result = self.run_vs_add(AggregateKind.MIN, values, chunk=1)
        assert str(result) == "1.0"
        result = self.run_vs_add(AggregateKind.MIN, values, chunk=2)
        assert str(result) == "1.0"

    def test_distinct_routes_through_add(self):
        values = [1, 1, 2, None, 2, 3]
        assert self.run_vs_add(AggregateKind.COUNT, values, distinct=True) == 3
        assert self.run_vs_add(AggregateKind.SUM, values, distinct=True) == 6

    def test_add_count_matches_count_star(self):
        from repro.executor.aggregate import _COUNT_STAR

        per_row = _Accumulator(AggregateKind.COUNT, False)
        for _ in range(7):
            per_row.add(_COUNT_STAR)
        bulk = _Accumulator(AggregateKind.COUNT, False)
        bulk.add_count(4)
        bulk.add_count(3)
        assert bulk.result() == per_row.result() == 7


_FOLD_SCALARS = {
    "int": st.integers(-(10**20), 10**20),
    "decimal": st.sampled_from(
        [Decimal("0.1"), Decimal("1.00"), Decimal("-2.5"), Decimal("1E+3")]
    ),
    "float": st.one_of(
        st.sampled_from([0.1, 0.2, -0.0, 1e16, -1e16]),
        st.floats(-1e6, 1e6),
    ),
}
# Families whose values add without raising (Decimal + float does not).
_FOLD_FAMILIES = [
    ("int",), ("decimal",), ("float",), ("int", "decimal"), ("int", "float")
]


@st.composite
def _fold_runs(draw):
    family = draw(st.sampled_from(_FOLD_FAMILIES))
    nulls = draw(st.sampled_from([(), (None,), (None, NULL)]))
    element = st.one_of(
        [_FOLD_SCALARS[name] for name in family]
        + [st.just(null) for null in nulls]
    )
    return draw(st.lists(element, max_size=30)), draw(st.integers(1, 8))


class TestAccumulatorRunIdentity:
    """``add_run``'s census / ``reduce`` / plain ``min``-``max`` folds
    equal the per-value ``add`` loop object for object, float sums in
    their fixed order included."""

    @settings(max_examples=120, deadline=None)
    @given(_fold_runs(), st.sampled_from(list(AggregateKind)))
    def test_add_run_equals_add_loop(self, drawn, kind):
        values, chunk = drawn
        TestAccumulatorRunFolding().run_vs_add(kind, values, chunk=chunk)


@st.composite
def _number_columns(draw):
    size = draw(st.integers(0, 12))
    families = [draw(st.sampled_from(_FOLD_FAMILIES)) for _ in range(2)]
    nulls = draw(st.booleans())
    columns = []
    for family in families:
        element = st.one_of(
            [_FOLD_SCALARS[name] for name in family]
            + ([st.none()] if nulls else [])
        )
        columns.append(draw(st.lists(element, min_size=size, max_size=size)))
    return list(zip(*columns))


class _OneBlock(PhysicalOperator):
    """Yields its rows as one block in either engine."""

    def __init__(self, schema, rows):
        super().__init__(schema)
        self.rows = rows

    def _blocks(self, context):
        yield RowBlock(list(self.rows))


def _outcome(compute):
    try:
        return repr(compute())
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestArithmeticKernelIdentity:
    """The arithmetic kernel's one-``map`` path returns what the per-row
    loop and the interpreter return, and fails with the same error at
    the same row."""

    @settings(max_examples=120, deadline=None)
    @given(
        _number_columns(),
        st.sampled_from([ArithmeticOp.ADD, ArithmeticOp.SUB, ArithmeticOp.MUL]),
    )
    def test_equals_interpreter(self, rows, op):
        expression = Arithmetic(op, X, Y)
        kernel = vector_value_kernel(expression, SCHEMA)
        sel = list(range(len(rows)))
        assert _outcome(lambda: kernel(RowBlock(rows), sel)) == _outcome(
            lambda: [evaluate(expression, SCHEMA, row) for row in rows]
        )

    @pytest.mark.parametrize("mode", ["interpreted", "vector"])
    def test_invalid_decimal_operation_raises_at_its_row(self, mode):
        inf = Decimal("Infinity")
        rows = [(Decimal(1), Decimal(2)), (inf, inf), (-inf, -inf)]
        expression = Arithmetic(ArithmeticOp.SUB, X, Y)
        op = ProjectOp(
            _OneBlock(SCHEMA, rows), [expression], RowSchema([col("", "d")])
        )
        with pytest.raises(ExpressionError) as raised:
            op.execute(ExecutionContext(None, mode=mode))
        assert str(raised.value) == (
            "cannot compute Decimal('Infinity') - Decimal('Infinity')"
        )


D = col("t", "d")
TREE_SCHEMA = RowSchema([X, Y, D])
_INF = Decimal("Infinity")
_NUMBERS = [None, 0, 0, 1, -3, Decimal("0"), Decimal("2.5"), _INF, -_INF]
_DATES = [None, datetime.date(1995, 3, 14), datetime.date(1992, 12, 31)]


def _numeric_trees(predicates):
    leaves = st.sampled_from(
        [X, Y, lit(0), lit(2), lit(Decimal("1.5")), lit(_INF), lit(None)]
    )

    def extend(children):
        return st.one_of(
            st.builds(
                Arithmetic, st.sampled_from(list(ArithmeticOp)), children, children
            ),
            st.builds(CaseWhen, predicates, children, children),
            st.builds(
                DatePart, st.sampled_from(["year", "month", "day"]),
                st.sampled_from([D, D, X]),
            ),
        )

    return st.recursive(leaves, extend, max_leaves=6)


def _predicate_trees(numbers):
    def extend(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(
                BooleanExpr,
                st.sampled_from(list(BooleanOp)),
                st.lists(children, min_size=2, max_size=3).map(tuple),
            ),
        )

    leaves = st.one_of(
        st.builds(Comparison, st.sampled_from(list(ComparisonOp)), numbers, numbers),
        st.builds(IsNull, numbers, st.booleans()),
        st.builds(
            InList, numbers, st.lists(numbers, min_size=1, max_size=3).map(tuple)
        ),
    )
    return st.recursive(leaves, extend, max_leaves=4)


_NUMBERS_FLAT = _numeric_trees(
    st.builds(
        Comparison,
        st.sampled_from(list(ComparisonOp)),
        st.sampled_from([X, Y]),
        st.sampled_from([lit(0), lit(2), Y]),
    )
)
_TREES = st.one_of(
    _numeric_trees(_predicate_trees(_NUMBERS_FLAT)),
    _predicate_trees(_numeric_trees(st.just(IsNull(X, False)))),
)
# A tree divided by a column raises on other rows than most trees do,
# which is where the order of a projection's columns shows.
_DIVIDED_TREES = st.builds(
    Arithmetic, st.just(ArithmeticOp.DIV), _TREES, st.sampled_from([X, Y])
)


@st.composite
def _tree_blocks(draw):
    rows = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_NUMBERS),
                st.sampled_from(_NUMBERS),
                st.sampled_from(_DATES),
            ),
            max_size=8,
        )
    )
    live = draw(st.lists(st.booleans(), min_size=len(rows), max_size=len(rows)))
    selection = [i for i, keep in enumerate(live) if keep]
    return rows, draw(st.sampled_from([None, selection]))


class TestKernelsEqualInterpreterRowMajor:
    """Random trees over every form — CASE, DIV, date parts, NOT, IS
    NULL, IN and comparisons over arithmetic — with NULLs, zero
    divisors and infinities: a value kernel, a filter and a
    two-expression projection give what the interpreter gives running
    the live rows in order, the same values or the same error."""

    @settings(max_examples=150, deadline=None)
    @given(_TREES, st.one_of(_TREES, _DIVIDED_TREES), _tree_blocks())
    def test_block_kernels_equal_interpreter(self, first, second, drawn):
        rows, selection = drawn
        block = RowBlock(rows, selection)
        live = list(block.live())
        live_rows = [rows[i] for i in live]

        def interpret(expression):
            return [evaluate(expression, TREE_SCHEMA, row) for row in live_rows]

        kernel = vector_value_kernel(first, TREE_SCHEMA)
        _assert_kernels_match(
            lambda: list(kernel(block, live)), lambda: interpret(first)
        )

        keep = VectorFilter(first, TREE_SCHEMA)
        _assert_kernels_match(
            lambda: keep(block),
            lambda: [
                i for i, value in zip(live, interpret(first)) if value is True
            ],
        )

        for pair in ([first, second], [second, first]):
            project = vector_projection_kernel(pair, TREE_SCHEMA)
            _assert_kernels_match(
                lambda: project(block).materialize(),
                lambda: [
                    tuple(
                        evaluate(expression, TREE_SCHEMA, row)
                        for expression in pair
                    )
                    for row in live_rows
                ],
            )


def _assert_kernels_match(run_kernels, run_interpreter):
    """Same values or same error text; and since a kernel evaluates
    nothing the interpreter does not, a block the interpreter runs
    without error is never re-run through it."""
    reset_vector_stats()
    got = _outcome(run_kernels)
    reruns = vector_stats().get("vector.fallback_terms", 0)
    try:
        expected = repr(run_interpreter())
    except Exception as exc:
        expected = f"{type(exc).__name__}: {exc}"
    else:
        assert reruns == 0
    assert got == expected
