"""Compiled expression closures must match the interpreter exactly.

Every test here evaluates the same expression over the same rows with
both :func:`repro.expr.compile.compile_expression` and
:func:`repro.expr.evaluate.evaluate`, with emphasis on the three-valued
edge cases where a naive compilation would diverge (NULL in AND/OR,
NULLs inside IN lists, mixed-numeric comparison, CASE WHEN arms).
"""

import decimal

import pytest

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
from repro.expr.compile import (
    clear_compile_cache,
    compile_expression,
    compile_predicate,
    predicate_kernel,
    reset_stats,
    stats,
)
from repro.expr.nodes import Arithmetic, ArithmeticOp

X, Y = col("t", "x"), col("t", "y")
SCHEMA = RowSchema([X, Y])


def both(expression, row, schema=SCHEMA):
    """Evaluate via interpreter and compiled closure; assert identical."""
    expected = evaluate(expression, schema, row)
    compiled = compile_expression(expression, schema)(row)
    assert compiled == expected
    # `is` for the truth values so True/1 and False/0 can't blur.
    if expected is None or isinstance(expected, bool):
        assert compiled is expected
    return compiled


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
        assert compile_predicate(pred, SCHEMA)((None, 1)) is False
        assert compile_predicate(pred, SCHEMA)((1, 1)) is True


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
            compile_expression(expr, SCHEMA)((-1, 0))


class TestArithmeticAndNulls:
    def test_null_propagation(self):
        expr = Arithmetic(ArithmeticOp.ADD, X, lit(1))
        assert both(expr, (None, 0)) is None

    def test_decimal_float_unification(self):
        expr = Arithmetic(ArithmeticOp.MUL, X, lit(0.5))
        assert both(expr, (decimal.Decimal("10"), 0)) == decimal.Decimal("5.0")

    def test_division_by_zero_at_call_time(self):
        # Constant folding must not hoist the error to compile time.
        expr = Arithmetic(ArithmeticOp.DIV, lit(1), lit(0))
        fn = compile_expression(expr, SCHEMA)
        with pytest.raises(ExpressionError):
            fn((0, 0))

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
        clear_compile_cache()
        reset_stats()
        expr = Comparison(ComparisonOp.EQ, X, Y)
        first = compile_expression(expr, SCHEMA)
        second = compile_expression(expr, SCHEMA)
        assert first is second
        assert stats()["compile.memo_hits"] == 1

    def test_constant_folding_counted(self):
        clear_compile_cache()
        reset_stats()
        expr = Comparison(
            ComparisonOp.LT, X, Arithmetic(ArithmeticOp.ADD, lit(1), lit(2))
        )
        fn = compile_expression(expr, SCHEMA)
        assert fn((2, 0)) is True
        assert fn((3, 0)) is False


class TestKernelMemoBound:
    """The three kernel memos share one LRU with a fixed cap: ad-hoc
    statements with fresh literals must not grow them without limit,
    and eviction must fall on cold kernels, not the ones in use."""

    def test_ten_times_the_cap_leaves_at_most_the_cap(self):
        from repro.expr import compile as expr_compile
        from repro.expr import vector

        cap = expr_compile.KERNEL_MEMO_CAP
        hot = Comparison(ComparisonOp.LT, X, lit(-1))
        lookups = (
            (expr_compile._MEMO, compile_expression),
            (vector._FILTER_MEMO, vector.compile_vector_filter),
            (vector._VALUE_MEMO, vector.vector_value_kernel),
        )
        clear_compile_cache()
        vector.clear_vector_cache()
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
            clear_compile_cache()
            vector.clear_vector_cache()
        assert [len(memo) for memo, _ in lookups] == [0, 0, 0]

    def test_concurrent_lookups_keep_the_bound(self):
        import sys
        import threading

        from repro.expr import compile as expr_compile

        cap = expr_compile.KERNEL_MEMO_CAP
        clear_compile_cache()
        errors = []

        def worker(offset):
            try:
                for value in range(2 * cap):
                    shared = Comparison(ComparisonOp.GT, Y, lit(value % 7))
                    own = Comparison(ComparisonOp.GT, X, lit(offset + value))
                    assert compile_expression(shared, SCHEMA)((0, 9)) is True
                    assert compile_expression(own, SCHEMA)((-1, 0)) is False
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
            size = len(expr_compile._MEMO)
            clear_compile_cache()
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert size == cap
