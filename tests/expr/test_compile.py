"""Block kernels must match the interpreter exactly; their memo is bounded.

Every value test here evaluates the same expression over the same row
with both the block kernels of :mod:`repro.expr.vector` (value kernel
and filter) and :func:`repro.expr.evaluate.evaluate`, with emphasis on
the three-valued edge cases where a naive kernel would diverge (NULL in
AND/OR, NULLs inside IN lists, mixed-numeric comparison, CASE WHEN
arms). The rest pin :mod:`repro.expr.compile`: the memo every kernel
family shares (hits, the LRU cap, concurrent lookups) and the
``predicate_kernel`` adapter.
"""

import decimal

import pytest

from repro import Column, Database, TableSchema, run_query
from repro.errors import ExpressionError
from repro.expr import (
    BooleanExpr,
    BooleanOp,
    CaseWhen,
    Comparison,
    ComparisonOp,
    InList,
    IsNull,
    Not,
    RowSchema,
    col,
    evaluate,
    lit,
)
from repro.expr import vector
from repro.expr.compile import KERNEL_MEMO_CAP, predicate_kernel, reset_stats, stats
from repro.expr.nodes import Arithmetic, ArithmeticOp
from repro.expr.vector import (
    RowBlock,
    VectorFilter,
    clear_vector_cache,
    vector_value_kernel,
)
from repro.sqltypes import INTEGER

X, Y = col("t", "x"), col("t", "y")
SCHEMA = RowSchema([X, Y])


def value_of(expression, row, schema=SCHEMA):
    """The block value kernel's value on one row."""
    (value,) = vector_value_kernel(expression, schema)(RowBlock([row]), [0])
    return value


def both(expression, row, schema=SCHEMA):
    """Evaluate via the interpreter and the block kernels; assert
    identical values, and a filter keeping the row exactly when the
    value is True — from the kernels themselves, never from a re-run
    through the interpreter."""
    expected = evaluate(expression, schema, row)
    reset_stats()
    value = value_of(expression, row, schema)
    assert value == expected
    # `is` for the truth values so True/1 and False/0 can't blur.
    if expected is None or isinstance(expected, bool):
        assert value is expected
    kept = VectorFilter(expression, schema)(RowBlock([row]))
    assert kept == ([0] if expected is True else [])
    assert stats().get("vector.fallback_terms", 0) == 0
    return value


class TestThreeValuedBoolean:
    def test_null_in_conjunction(self):
        for a in (True, False, None):
            for b in (True, False, None):
                both(BooleanExpr(BooleanOp.AND, (lit(a), lit(b))), (0, 0))
                both(BooleanExpr(BooleanOp.OR, (lit(a), lit(b))), (0, 0))

    def test_false_dominates_unknown_with_columns(self):
        # x IS NULL short-circuits nothing: AND must still see False.
        pred = BooleanExpr(
            BooleanOp.AND,
            (Comparison(ComparisonOp.GT, X, lit(5)), lit(False)),
        )
        assert both(pred, (None, 0)) is False

    def test_unknown_survives_or(self):
        pred = BooleanExpr(
            BooleanOp.OR,
            (Comparison(ComparisonOp.GT, X, lit(5)), lit(False)),
        )
        assert both(pred, (None, 0)) is None

    def test_not_of_unknown(self):
        assert both(Not(Comparison(ComparisonOp.EQ, X, Y)), (None, 1)) is None

    def test_predicate_form_drops_unknown(self):
        pred = Comparison(ComparisonOp.EQ, X, Y)
        kernel = VectorFilter(pred, SCHEMA)
        assert kernel(RowBlock([(None, 1), (1, 1), (1, None)])) == [1]


class TestInList:
    def test_null_needle(self):
        expr = InList(X, (lit(1), lit(2)))
        assert both(expr, (None, 0)) is None

    def test_null_in_values_hit(self):
        # A match wins even with NULLs in the list.
        expr = InList(X, (lit(None), lit(2)))
        assert both(expr, (2, 0)) is True

    def test_null_in_values_miss_is_unknown(self):
        # No match + NULL in list = unknown, not False.
        expr = InList(X, (lit(None), lit(2)))
        assert both(expr, (3, 0)) is None

    def test_miss_without_nulls_is_false(self):
        expr = InList(X, (lit(1), lit(2)))
        assert both(expr, (3, 0)) is False

    def test_non_constant_values(self):
        # Column refs in the list force the per-row path.
        expr = InList(X, (Y, lit(9)))
        assert both(expr, (4, 4)) is True
        assert both(expr, (4, 5)) is False
        assert both(expr, (4, None)) is None


class TestMixedNumericComparison:
    def test_decimal_vs_int(self):
        expr = Comparison(ComparisonOp.EQ, X, lit(decimal.Decimal("5")))
        assert both(expr, (5, 0)) is True
        assert both(expr, (decimal.Decimal("5.0"), 0)) is True
        assert both(expr, (4, 0)) is False

    def test_decimal_vs_float(self):
        expr = Comparison(ComparisonOp.LT, X, lit(0.3))
        assert both(expr, (decimal.Decimal("0.25"), 0)) is True
        assert both(expr, (decimal.Decimal("0.35"), 0)) is False

    def test_null_comparison_unknown(self):
        for op in ComparisonOp:
            assert both(Comparison(op, X, lit(1)), (None, 0)) is None
            assert both(Comparison(op, lit(1), X), (None, 0)) is None

    def test_constant_on_left(self):
        expr = Comparison(ComparisonOp.GT, lit(10), X)
        assert both(expr, (5, 0)) is True
        assert both(expr, (15, 0)) is False
        assert both(expr, (decimal.Decimal("10"), 0)) is False


class TestCaseWhen:
    def test_fallthrough_arms(self):
        expr = CaseWhen(
            Comparison(ComparisonOp.GT, X, lit(0)), lit("pos"), lit("rest")
        )
        assert both(expr, (1, 0)) == "pos"
        assert both(expr, (-1, 0)) == "rest"
        # NULL condition takes the ELSE arm (unknown is not True).
        assert both(expr, (None, 0)) == "rest"

    def test_lazy_arms(self):
        # The untaken arm must not be evaluated: 1/0 in ELSE.
        expr = CaseWhen(
            Comparison(ComparisonOp.GT, X, lit(0)),
            lit("ok"),
            Arithmetic(ArithmeticOp.DIV, lit(1), lit(0)),
        )
        assert both(expr, (1, 0)) == "ok"
        with pytest.raises(ExpressionError):
            value_of(expr, (-1, 0))


class TestArithmeticAndNulls:
    def test_null_propagation(self):
        expr = Arithmetic(ArithmeticOp.ADD, X, lit(1))
        assert both(expr, (None, 0)) is None

    def test_decimal_float_unification(self):
        expr = Arithmetic(ArithmeticOp.MUL, X, lit(0.5))
        assert both(expr, (decimal.Decimal("10"), 0)) == decimal.Decimal("5.0")

    def test_division_by_zero_at_call_time(self):
        # Constant folding must not hoist the error to compile time:
        # it surfaces at the first row, and a block without rows is fine.
        expr = Arithmetic(ArithmeticOp.DIV, lit(1), lit(0))
        kernel = vector_value_kernel(expr, SCHEMA)
        assert kernel(RowBlock([]), []) == []
        with pytest.raises(ExpressionError):
            kernel(RowBlock([(0, 0)]), [0])

    def test_is_null(self):
        assert both(IsNull(X), (None, 0)) is True
        assert both(IsNull(X), (1, 0)) is False
        assert both(IsNull(X, negated=True), (None, 0)) is False


class TestKernelsAndCaching:
    def test_predicate_kernel(self):
        rows = [(i, i % 3) for i in range(10)] + [(None, 0)]
        kernel = predicate_kernel(
            Comparison(ComparisonOp.EQ, Y, lit(0)), SCHEMA
        )
        assert kernel(rows) == [row for row in rows if row[1] == 0]

    def test_memoization(self):
        clear_vector_cache()
        reset_stats()
        expr = Comparison(ComparisonOp.EQ, X, Y)
        first = vector_value_kernel(expr, SCHEMA)
        second = vector_value_kernel(expr, SCHEMA)
        assert first is second
        assert stats()["compile.memo_hits"] == 1

    def test_constant_folding_counted(self):
        expr = Comparison(
            ComparisonOp.LT, X, Arithmetic(ArithmeticOp.ADD, lit(1), lit(2))
        )
        kernel = VectorFilter(expr, SCHEMA)
        # 1 + 2 folds once, into the column-vs-constant leaf.
        assert kernel.root.constant == 3
        assert kernel(RowBlock([(2, 0), (3, 0), (None, 0)])) == [0]
        assert both(expr, (2, 0)) is True
        assert both(expr, (3, 0)) is False


class TestKernelMemoBound:
    """The kernel memos share one LRU with a fixed cap: ad-hoc
    statements with fresh literals must not grow them without limit,
    and eviction must fall on cold kernels, not the ones in use."""

    def test_ten_times_the_cap_leaves_at_most_the_cap(self):
        cap = KERNEL_MEMO_CAP
        hot = Comparison(ComparisonOp.LT, X, lit(-1))
        lookups = (
            (vector._FILTER_MEMO, vector.compile_vector_filter),
            (vector._VALUE_MEMO, vector.vector_value_kernel),
        )
        clear_vector_cache()
        try:
            for memo, lookup in lookups:
                kernel = lookup(hot, SCHEMA)
                for value in range(10 * cap):
                    lookup(Comparison(ComparisonOp.LT, X, lit(value)), SCHEMA)
                    if value % (cap // 2) == 0:
                        assert lookup(hot, SCHEMA) is kernel
                assert len(memo) == cap
                assert lookup(hot, SCHEMA) is kernel
                # A cold kernel was evicted: asking again compiles anew.
                reset_stats()
                lookup(Comparison(ComparisonOp.LT, X, lit(0)), SCHEMA)
                assert stats().get("compile.memo_hits", 0) == 0
        finally:
            clear_vector_cache()
        assert [len(memo) for memo, _ in lookups] == [0, 0]

    def test_concurrent_lookups_keep_the_bound(self):
        import sys
        import threading

        cap = KERNEL_MEMO_CAP
        clear_vector_cache()
        errors = []

        def worker(offset):
            try:
                for value in range(2 * cap):
                    shared = Comparison(ComparisonOp.GT, Y, lit(value % 7))
                    own = Comparison(ComparisonOp.GT, X, lit(offset + value))
                    assert value_of(shared, (0, 9)) is True
                    assert value_of(own, (-1, 0)) is False
            except Exception as exc:  # surfaced below, on the main thread
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(index * 10 * cap,))
            for index in range(4)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            size = len(vector._VALUE_MEMO)
            clear_vector_cache()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert size == cap


class TestLiteralTypes:
    """``1``, ``1.0``, ``Decimal('1')`` and ``True`` are equal Python
    values but different constants: kernels memoized by expression must
    not hand one literal's kernel to another. Rows compare equal under
    ``==`` either way, so the check is on their ``repr``."""

    STATEMENTS = [
        "select a + 1 as x, a + 1.0 as y from t",
        "select a * 2 as x from t where a = 1",
        "select a * 2.0 as x from t where a = 1.0",
        "select a + 1.0 as x, a + 1.00 as y from t",
        "select sum(a * 1.0) as x, sum(a * 1.00) as y, avg(a * 1.00) as z"
        " from t",
    ]

    def test_literal_equality_includes_the_type(self):
        for other in (1.0, decimal.Decimal("1"), True):
            assert lit(1) != lit(other)
            assert hash(lit(1)) == hash(lit(other))
        assert lit(1) == lit(1)
        one_point_zero = lit(decimal.Decimal("1.0"))
        assert one_point_zero != lit(decimal.Decimal("1.00"))
        assert hash(one_point_zero) == hash(lit(decimal.Decimal("1.00")))
        assert one_point_zero == lit(decimal.Decimal("1.0"))
        assert Arithmetic(ArithmeticOp.ADD, X, lit(1)) != Arithmetic(
            ArithmeticOp.ADD, X, lit(1.0)
        )

    @pytest.mark.parametrize("reverse", [False, True])
    def test_result_reprs_agree_across_engines_and_orders(self, reverse):
        db = Database()
        db.create_table(TableSchema("t", [Column("a", INTEGER)]), rows=[(1,)])
        statements = self.STATEMENTS[::-1] if reverse else self.STATEMENTS
        results = {}
        for mode in ("vector", "interpreted"):
            clear_vector_cache()
            results[mode] = {
                sql: repr(run_query(db, sql, mode=mode).rows)
                for sql in statements
            }
        assert results["vector"] == results["interpreted"]
        assert results["vector"][self.STATEMENTS[0]] == (
            "[(2, Decimal('2.0'))]"
        )
        assert results["vector"][self.STATEMENTS[2]] == "[(Decimal('2.0'),)]"
        assert results["vector"][self.STATEMENTS[3]] == (
            "[(Decimal('2.0'), Decimal('2.00'))]"
        )
