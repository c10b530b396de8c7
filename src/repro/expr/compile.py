"""Compile expression trees to Python closures and batch kernels.

The tree-walking interpreter (:mod:`repro.expr.evaluate`) re-dispatches
on node type and re-resolves ``schema.position()`` for every record.
This module does that work once per (expression, schema) pair and
returns a closure specialised for the tree's shape:

* column positions are resolved at compile time;
* constant subtrees (no column references) are folded to their value;
* the hot comparison/boolean forms get dedicated closures that keep
  three-valued-logic semantics byte-identical to the interpreter;
* batch kernels (``predicate(rows) -> rows``, ``key(rows) -> keys``)
  move the per-row loop into a single list comprehension.

Compiled closures must agree with :func:`repro.expr.evaluate.evaluate`
on every input, including NULL propagation and error behaviour — the
block engine calls them as value kernels (and as the row fallback of
:mod:`repro.expr.vector`), ``REPRO_EXEC=interpreted`` runs the
interpreter instead, and the differential tests assert identical
output.

This module sits in the ``expr`` layer and must not import upward
(``repro.core`` and above), so it keeps its own small stats dict
instead of using ``repro.core.instrument``.
"""

from __future__ import annotations

import datetime
import decimal
import operator as _operator
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ExpressionError
from repro.expr.bindings import active_value
from repro.expr.evaluate import evaluate
from repro.expr.nodes import (
    Aggregate,
    Arithmetic,
    ArithmeticOp,
    BooleanExpr,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    ComparisonOp,
    DatePart,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
    Parameter,
)
from repro.expr.schema import RowSchema
from repro.sqltypes import is_null, sql_compare
from repro.sqltypes.values import NULL, sort_key

Row = Tuple[Any, ...]
RowFn = Callable[[Row], Any]

# The expr layer's counters: ``compile.*`` from this module, ``vector.*``
# from :mod:`repro.expr.vector` (read by benches/tests; reset with
# reset_stats). Kept local because instrument lives above this layer.
STATS: Dict[str, int] = {}


def _count(name: str) -> None:
    STATS[name] = STATS.get(name, 0) + 1


def reset_stats() -> None:
    STATS.clear()


def stats() -> Dict[str, int]:
    return dict(STATS)


# Entries each kernel memo keeps. A cached statement needs a handful of
# kernels, so this is hundreds of hot statements; ad-hoc traffic with
# fresh literals on every arrival recompiles instead of growing forever.
KERNEL_MEMO_CAP = 1024


class KernelMemo:
    """Least-recently-used memo of kernels keyed by (expression, schema).

    One lock serialises lookup-and-touch against insert-and-evict: the
    query service's workers share the memos of this layer. Every lookup
    counts as ``compile.calls`` (and ``compile.memo_hits``), whichever
    kernel family the memo holds, so the hit ratio means the same under
    every engine.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[Tuple[Expression, RowSchema], Any]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def get(self, key: Tuple[Expression, RowSchema]) -> Optional[Any]:
        _count("compile.calls")
        with self._lock:
            kernel = self._entries.get(key)
            if kernel is not None:
                self._entries.move_to_end(key)
        if kernel is not None:
            _count("compile.memo_hits")
        return kernel

    def put(self, key: Tuple[Expression, RowSchema], kernel: Any) -> None:
        with self._lock:
            self._entries[key] = kernel
            self._entries.move_to_end(key)
            if len(self._entries) > KERNEL_MEMO_CAP:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


_MEMO = KernelMemo()


def clear_compile_cache() -> None:
    """Drop every memoized closure (tests that count compilations)."""
    _MEMO.clear()


def compile_expression(expression: Expression, schema: RowSchema) -> RowFn:
    """A closure computing ``expression`` over one record of ``schema``.

    Memoized per (expression, schema); both are hashable by value, so
    re-executions of the same plan shape reuse the compiled form.
    """
    key = (expression, schema)
    compiled = _MEMO.get(key)
    if compiled is None:
        compiled = _compile(expression, schema)
        _MEMO.put(key, compiled)
    return compiled


def compile_predicate(
    expression: Expression, schema: RowSchema
) -> Callable[[Row], bool]:
    """Filter form: unknown (NULL) counts as False, like the interpreter."""
    fn = compile_expression(expression, schema)
    return lambda row: fn(row) is True


# ----------------------------------------------------------------------
# Batch kernels
# ----------------------------------------------------------------------


def predicate_kernel(
    expression: Expression, schema: RowSchema
) -> Callable[[Sequence[Row]], List[Row]]:
    """``kernel(rows) -> rows`` keeping records where the predicate is
    True (three-valued: NULL drops the row).

    No operator calls this; ``perf/layers.py`` times it for the
    ``expr.filter_mrows_per_s`` layer metric (ROADMAP item G).
    """
    fn = compile_expression(expression, schema)
    return lambda rows: [row for row in rows if fn(row) is True]


def join_key_kernel(
    positions: Sequence[int],
) -> Callable[[Sequence[Row]], List[Optional[Tuple[Any, ...]]]]:
    """Sort-keyed join keys, ``None`` for records with a NULL key column
    (merge-join semantics: totally ordered, NULL never matches)."""
    positions = tuple(positions)

    def kernel(rows: Sequence[Row]) -> List[Optional[Tuple[Any, ...]]]:
        keys: List[Optional[Tuple[Any, ...]]] = []
        append = keys.append
        for row in rows:
            marker = []
            for position in positions:
                value = row[position]
                if value is None or value is NULL:
                    marker = None
                    break
                marker.append(sort_key(value))
            append(None if marker is None else tuple(marker))
        return keys

    return kernel


# ----------------------------------------------------------------------
# The compiler proper
# ----------------------------------------------------------------------

_EMPTY_SCHEMA = RowSchema(())

# Types whose values the interpreter compares directly (no coercion),
# so identical concrete types can skip sql_compare's dispatch. Exact
# type checks keep bool (a subclass of int) and datetime (a subclass of
# date) on the general path.
_DIRECT_COMPARE = frozenset({int, float, str, decimal.Decimal, datetime.date})


def _compare(left: Any, right: Any) -> Optional[int]:
    """sql_compare with a monomorphic fast path; identical semantics."""
    if left is None or right is None:
        return None
    kind = type(left)
    if kind is type(right) and kind in _DIRECT_COMPARE:
        if left < right:
            return -1
        if left > right:
            return 1
        return 0
    return sql_compare(left, right)


def _is_constant(expression: Expression) -> bool:
    if isinstance(expression, (ColumnRef, Parameter, Aggregate)):
        return False
    return all(_is_constant(child) for child in expression.children())


_COMPARISON_CHECKS = {
    ComparisonOp.EQ: lambda cmp: cmp == 0,
    ComparisonOp.NE: lambda cmp: cmp != 0,
    ComparisonOp.LT: lambda cmp: cmp < 0,
    ComparisonOp.LE: lambda cmp: cmp <= 0,
    ComparisonOp.GT: lambda cmp: cmp > 0,
    ComparisonOp.GE: lambda cmp: cmp >= 0,
}

_ARITHMETIC_FNS = {
    ArithmeticOp.ADD: _operator.add,
    ArithmeticOp.SUB: _operator.sub,
    ArithmeticOp.MUL: _operator.mul,
    ArithmeticOp.DIV: _operator.truediv,
}


def _compile(expression: Expression, schema: RowSchema) -> RowFn:
    if isinstance(expression, Literal):
        value = expression.value
        return lambda row: value
    if isinstance(expression, ColumnRef):
        position = schema.position(expression)
        return lambda row: row[position]
    if _is_constant(expression):
        # Fold once at compile time. If evaluation raises (e.g. a
        # literal division by zero), defer the error to call time like
        # the interpreter would.
        try:
            value = evaluate(expression, _EMPTY_SCHEMA, ())
        except Exception:
            return lambda row: evaluate(expression, _EMPTY_SCHEMA, ())
        _count("compile.constant_folds")
        return lambda row: value
    if isinstance(expression, Comparison):
        return _compile_comparison(expression, schema)
    if isinstance(expression, BooleanExpr):
        return _compile_boolean(expression, schema)
    if isinstance(expression, Not):
        inner = _compile(expression.operand, schema)

        def negate(row: Row) -> Optional[bool]:
            value = inner(row)
            if value is None:
                return None
            return not value

        return negate
    if isinstance(expression, IsNull):
        inner = _compile(expression.operand, schema)
        if expression.negated:
            return lambda row: not is_null(inner(row))
        return lambda row: is_null(inner(row))
    if isinstance(expression, InList):
        return _compile_in_list(expression, schema)
    if isinstance(expression, Arithmetic):
        return _compile_arithmetic(expression, schema)
    if isinstance(expression, DatePart):
        inner = _compile(expression.operand, schema)
        part = expression.part

        def date_part(row: Row) -> Any:
            value = inner(row)
            if value is None or value is NULL:
                return None
            try:
                return getattr(value, part)
            except AttributeError as exc:
                raise ExpressionError(
                    f"cannot extract {part} from {value!r}"
                ) from exc

        return date_part
    if isinstance(expression, CaseWhen):
        condition = _compile(expression.condition, schema)
        then_value = _compile(expression.then_value, schema)
        else_value = _compile(expression.else_value, schema)
        # Interpreter semantics: NULL/False conditions take the ELSE arm.
        return lambda row: (
            then_value(row) if condition(row) else else_value(row)
        )
    if isinstance(expression, Aggregate):

        def aggregate_error(row: Row) -> Any:
            raise ExpressionError(
                f"aggregate {expression} cannot be evaluated per-record; "
                "it must be planned into a group-by operator"
            )

        return aggregate_error
    if isinstance(expression, Parameter):
        # Parameters resolve through the thread-local binding scope at
        # call time: the closure (and therefore the compile memo entry)
        # is the same object across executions with different bindings.
        name = expression.name
        return lambda row: active_value(name)
    raise ExpressionError(f"cannot compile {expression!r}")


def _fold_comparable_constant(expression: Expression) -> Optional[Any]:
    """The value of a constant subtree whose type takes the direct
    comparison fast path, else None (NULL constants and fold-time
    errors stay on the general path, preserving error timing)."""
    if not _is_constant(expression):
        return None
    try:
        value = evaluate(expression, _EMPTY_SCHEMA, ())
    except Exception:
        return None
    if type(value) in _DIRECT_COMPARE:
        return value
    return None


def _compile_comparison(expression: Comparison, schema: RowSchema) -> RowFn:
    check = _COMPARISON_CHECKS[expression.op]

    # The hot filter shape is <expr> <op> <constant> (or flipped):
    # specialize with the constant bound into the closure and a single
    # exact-type test guarding the direct comparison.
    constant = _fold_comparable_constant(expression.right)
    if constant is not None:
        if isinstance(expression.left, ColumnRef):
            position = schema.position(expression.left)
            kind = type(constant)

            def column_against_constant(row: Row) -> Optional[bool]:
                value = row[position]
                if type(value) is kind:
                    if value < constant:
                        return check(-1)
                    return check(1 if value > constant else 0)
                cmp = sql_compare(value, constant)
                if cmp is None:
                    return None
                return check(cmp)

            return column_against_constant
        left = _compile(expression.left, schema)
        kind = type(constant)

        def against_constant(row: Row) -> Optional[bool]:
            value = left(row)
            if type(value) is kind:
                if value < constant:
                    return check(-1)
                return check(1 if value > constant else 0)
            cmp = sql_compare(value, constant)
            if cmp is None:
                return None
            return check(cmp)

        return against_constant

    constant = _fold_comparable_constant(expression.left)
    if constant is not None:
        right = _compile(expression.right, schema)
        kind = type(constant)

        def constant_against(row: Row) -> Optional[bool]:
            value = right(row)
            if type(value) is kind:
                if constant < value:
                    return check(-1)
                return check(1 if constant > value else 0)
            cmp = sql_compare(constant, value)
            if cmp is None:
                return None
            return check(cmp)

        return constant_against

    left = _compile(expression.left, schema)
    right = _compile(expression.right, schema)

    def comparison(row: Row) -> Optional[bool]:
        cmp = _compare(left(row), right(row))
        if cmp is None:
            return None
        return check(cmp)

    return comparison


def _compile_boolean(expression: BooleanExpr, schema: RowSchema) -> RowFn:
    operands = [_compile(operand, schema) for operand in expression.operands]
    if expression.op is BooleanOp.AND:

        def conjunction(row: Row) -> Optional[bool]:
            saw_unknown = False
            for operand in operands:
                value = operand(row)
                if value is False:
                    return False
                if value is None:
                    saw_unknown = True
            return None if saw_unknown else True

        return conjunction

    def disjunction(row: Row) -> Optional[bool]:
        saw_unknown = False
        for operand in operands:
            value = operand(row)
            if value is True:
                return True
            if value is None:
                saw_unknown = True
        return None if saw_unknown else False

    return disjunction


def _compile_in_list(expression: InList, schema: RowSchema) -> RowFn:
    needle_fn = _compile(expression.operand, schema)
    hoisted: Optional[List[Any]] = None
    if all(_is_constant(value) for value in expression.values):
        # Hoist list evaluation out of the per-row loop; keep the
        # sql_compare scan so NULL-in-list and mixed-type errors match
        # the interpreter exactly. A list whose evaluation raises falls
        # back to the per-row path so the error surfaces at call time.
        try:
            hoisted = [
                evaluate(value, _EMPTY_SCHEMA, ())
                for value in expression.values
            ]
        except Exception:
            hoisted = None
    if hoisted is not None:
        values = hoisted

        def membership(row: Row) -> Optional[bool]:
            needle = needle_fn(row)
            if is_null(needle):
                return None
            saw_unknown = False
            for value in values:
                cmp = _compare(needle, value)
                if cmp is None:
                    saw_unknown = True
                elif cmp == 0:
                    return True
            return None if saw_unknown else False

        return membership

    value_fns = [_compile(value, schema) for value in expression.values]

    def general_membership(row: Row) -> Optional[bool]:
        needle = needle_fn(row)
        if is_null(needle):
            return None
        saw_unknown = False
        for value_fn in value_fns:
            cmp = _compare(needle, value_fn(row))
            if cmp is None:
                saw_unknown = True
            elif cmp == 0:
                return True
        return None if saw_unknown else False

    return general_membership


def _compile_arithmetic(expression: Arithmetic, schema: RowSchema) -> RowFn:
    left_fn = _compile(expression.left, schema)
    right_fn = _compile(expression.right, schema)
    apply = _ARITHMETIC_FNS[expression.op]
    op = expression.op

    def arithmetic(row: Row) -> Any:
        left = left_fn(row)
        right = right_fn(row)
        if left is None or right is None or left is NULL or right is NULL:
            return None
        if isinstance(left, decimal.Decimal) and isinstance(right, float):
            right = decimal.Decimal(str(right))
        elif isinstance(right, decimal.Decimal) and isinstance(left, float):
            left = decimal.Decimal(str(left))
        try:
            return apply(left, right)
        except (TypeError, decimal.InvalidOperation) as exc:
            raise ExpressionError(
                f"cannot compute {left!r} {op.value} {right!r}"
            ) from exc
        except ZeroDivisionError:
            raise ExpressionError(
                f"division by zero in {expression}"
            ) from None

    return arithmetic
