"""Columnar vector batches and column-at-a-time expression kernels.

The block engine (the default): instead of lists of row tuples,
operators exchange :class:`VectorBatch` objects — per-column value
lists plus a *selection vector* (sorted physical indices of live
rows). Filters narrow the selection without copying rows; projections
compute output columns; tuples are materialized late, only at pipeline
breakers (sort, hash build, group-by) or at the plan root.

Every expression form has a block kernel here; the reference
interpreter (:mod:`repro.expr.evaluate`) is the only other evaluator,
and the kernels must match it byte for byte, including SQL
three-valued logic. Its boolean semantics are identity checks —
``value is False`` short-circuits AND, ``value is True`` short-circuits
OR, ``value is None`` marks unknown, and any *other* value (a bare
column used as a predicate) flows through untouched — so every
predicate term exposes four views:

* ``values(batch, sel)`` — the term's value on each row of ``sel``
  (how a predicate used as a value, ``select a < b``, is computed);
* ``true_of(batch, sel)`` — rows whose value ``is True`` (filter keep
  set, OR accept set);
* ``and_filter(batch, sel) -> (survivors, unknowns)`` — rows a
  conjunction would keep scanning (not the ``False`` singleton), with
  the ``None``-valued subset flagged;
* ``or_filter(batch, sel) -> (accepted, unknowns)`` — strict-True rows
  plus the ``None``-valued subset.

Leaves with a dedicated loop cover column-vs-constant,
column-vs-parameter, IS NULL and IN over a constant list; any other
predicate node is one generic leaf over a value kernel
(``kernel(batch, sel) -> values``), and value kernels cover every form:
columns, constants, parameters, arithmetic, date parts, CASE and
comparisons over any operands.

Errors. A kernel evaluates a sub-expression only on rows where the
interpreter evaluates it too: CASE arms on their branch's rows, later
AND / OR operands and IN-list values only on rows not yet decided. So
when a column pass raises, the interpreter raises as well; only *which
row's* error comes first can differ, because a column pass finishes one
sub-expression over the whole block before it starts the next. The
block entry points — :func:`vector_value_kernel`, :class:`VectorFilter`
and the projection kernel, which also computes group-by arguments —
catch the error and re-run the block's live rows through the
interpreter, row-major and in the interpreted engine's expression
order, so they raise exactly what it raises (``vector.fallback_terms``
counts those re-runs).

On top of that representation sits cost-ordered evaluation: AND terms
run cheapest-and-most-selective first against the shrinking selection,
OR terms run cheapest-and-least-selective first with accepted rows
bypassing later disjuncts. The order is fixed once, when the kernel is
built, from catalog-stats selectivities (the ``selectivity`` callable
the executor's filter passes; 0.5 where it has none) — so it follows
the statistics current at the first compile of ``(expression,
schema)``, and running a block never changes a kernel's state.
Reordering is *gated on raise-safety*: any term that can raise
(arithmetic, CASE, fold-deferred constants) pins the whole conjunction
or disjunction to source order and the strict evaluation path, so no
raising term runs on a row the interpreter would have short-circuited.
Reordering affects work, never rows — the True set of a
conjunction/disjunction is an intersection/union, which is
commutative.

A host variable is a per-execution constant: ``api.execute`` checks
every name bound before the first row, so a parameter lookup cannot
raise here and ``column <op> :param`` runs the constant-comparison
loops — cost-ordered like any literal — with the value resolved through
:func:`repro.expr.bindings.active_value` once per block. Kernels are
memoized per (expression, schema) and are never rebuilt per binding.

This module sits in the ``expr`` layer (its memos and counters live in
:mod:`repro.expr.compile`) and must not import upward.
"""

from __future__ import annotations

import datetime
import decimal
import operator
from itertools import chain
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ExpressionError
from repro.expr.bindings import active_value
from repro.expr.compile import KernelMemo, _count, reset_stats, stats
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
    Not,
    Parameter,
)
from repro.expr.schema import RowSchema
from repro.sqltypes import sql_compare
from repro.sqltypes.values import NULL, SqlNull

Row = Tuple[Any, ...]
Selection = List[int]
# A predicate subtree's estimated strict-True rate, None when unknown.
Selectivity = Callable[[Expression], Optional[float]]

# Vector-path observability: the ``vector.*`` keys of the expr layer's
# one counter dict (``compile.stats()`` reports both families), under
# the names this module has always exported.
reset_vector_stats = reset_stats
vector_stats = stats


# ----------------------------------------------------------------------
# Vector batches
# ----------------------------------------------------------------------


class VectorBatch:
    """A block of rows in columnar form with a selection vector.

    ``selection`` is either ``None`` (every physical row is live) or a
    sorted list of physical row indices. ``column(p)`` returns the
    *full-length* column — consumers index it through the selection.
    Subclasses share cached columns across ``with_selection`` clones,
    so a term evaluated before a filter narrowed the batch never
    re-extracts its column.
    """

    __slots__ = ("selection", "length")

    @property
    def count(self) -> int:
        selection = self.selection
        return self.length if selection is None else len(selection)

    def live(self) -> Sequence[int]:
        selection = self.selection
        return range(self.length) if selection is None else selection

    def column(self, position: int) -> Sequence[Any]:
        raise NotImplementedError

    def row(self, index: int) -> Row:
        raise NotImplementedError

    def materialize(self) -> List[Row]:
        """Live rows as tuples (the late-materialization point)."""
        raise NotImplementedError

    def with_selection(self, selection: Selection) -> "VectorBatch":
        raise NotImplementedError

    def take(self, n: int) -> "VectorBatch":
        """The first ``n`` live rows (LIMIT)."""
        selection = self.selection
        if selection is None:
            return self.with_selection(list(range(n)))
        return self.with_selection(selection[:n])

    def gather(self, position: int, sel: Sequence[int]) -> Sequence[Any]:
        """Values of column ``position`` aligned with ``sel``.

        Unlike ``column()`` (always full physical length), this is the
        value-consumer entry point: when ``sel`` is sparse relative to
        the block, subclasses gather just the live rows instead of
        extracting the whole column first.
        """
        column = self.column(position)
        if len(sel) == self.length:
            return column
        return [column[i] for i in sel]


class RowBlock(VectorBatch):
    """Row-tuple backed batch: scans wrap their batches at zero cost.

    Columns are transposed lazily, once, on first access; materializing
    returns the original tuple objects, so a vector pipeline that never
    computes new values yields byte-identical rows for free.
    """

    __slots__ = ("rows", "_columns")

    def __init__(
        self,
        rows: List[Row],
        selection: Optional[Selection] = None,
        _columns: Optional[Dict[int, List[Any]]] = None,
    ):
        self.rows = rows
        self.length = len(rows)
        self.selection = selection
        self._columns = {} if _columns is None else _columns

    def column(self, position: int) -> List[Any]:
        column = self._columns.get(position)
        if column is None:
            column = [row[position] for row in self.rows]
            self._columns[position] = column
        return column

    def row(self, index: int) -> Row:
        return self.rows[index]

    def materialize(self) -> List[Row]:
        selection = self.selection
        if selection is None:
            return self.rows
        rows = self.rows
        return [rows[i] for i in selection]

    def gather(self, position: int, sel: Sequence[int]) -> Sequence[Any]:
        column = self._columns.get(position)
        if column is None:
            if 2 * len(sel) < self.length:
                rows = self.rows
                return [rows[i][position] for i in sel]
            column = self.column(position)
        if len(sel) == self.length:
            return column
        return [column[i] for i in sel]

    def with_selection(self, selection: Selection) -> "RowBlock":
        return RowBlock(self.rows, selection, self._columns)


class ColumnBlock(VectorBatch):
    """Column-list backed batch (projection output)."""

    __slots__ = ("columns",)

    def __init__(
        self,
        columns: List[List[Any]],
        length: int,
        selection: Optional[Selection] = None,
    ):
        self.columns = columns
        self.length = length
        self.selection = selection

    def column(self, position: int) -> List[Any]:
        return self.columns[position]

    def row(self, index: int) -> Row:
        return tuple(column[index] for column in self.columns)

    def materialize(self) -> List[Row]:
        columns = self.columns
        selection = self.selection
        if len(columns) == 1:
            only = columns[0]
            if selection is None:
                return [(value,) for value in only]
            return [(only[i],) for i in selection]
        if selection is None:
            return list(zip(*columns))
        return list(zip(*([column[i] for i in selection] for column in columns)))

    def with_selection(self, selection: Selection) -> "ColumnBlock":
        return ColumnBlock(self.columns, self.length, selection)


class JoinBlock(VectorBatch):
    """Join output in deferred form: outer indices + inner row tuples.

    One logical row per (outer physical index, inner row) match pair;
    the wide concatenated tuple is never built unless someone
    materializes. A projection above the join gathers only the columns
    it needs, which is where wide equi-join pipelines win.
    """

    __slots__ = ("outer", "outer_width", "out_index", "inner_rows", "_columns")

    def __init__(
        self,
        outer: VectorBatch,
        outer_width: int,
        out_index: List[int],
        inner_rows: List[Row],
        selection: Optional[Selection] = None,
        _columns: Optional[Dict[int, List[Any]]] = None,
    ):
        self.outer = outer
        self.outer_width = outer_width
        self.out_index = out_index
        self.inner_rows = inner_rows
        self.length = len(out_index)
        self.selection = selection
        self._columns = {} if _columns is None else _columns

    def column(self, position: int) -> List[Any]:
        column = self._columns.get(position)
        if column is None:
            if position < self.outer_width:
                source = self.outer.column(position)
                column = [source[i] for i in self.out_index]
            else:
                inner_position = position - self.outer_width
                column = [row[inner_position] for row in self.inner_rows]
            self._columns[position] = column
        return column

    def row(self, index: int) -> Row:
        return self.outer.row(self.out_index[index]) + self.inner_rows[index]

    def materialize(self) -> List[Row]:
        outer_row = self.outer.row
        selection = self.selection
        if selection is None:
            return [
                outer_row(i) + inner
                for i, inner in zip(self.out_index, self.inner_rows)
            ]
        out_index, inner_rows = self.out_index, self.inner_rows
        return [outer_row(out_index[j]) + inner_rows[j] for j in selection]

    def gather(self, position: int, sel: Sequence[int]) -> Sequence[Any]:
        column = self._columns.get(position)
        if column is None:
            if 2 * len(sel) < self.length:
                if position < self.outer_width:
                    out_index = self.out_index
                    outer = self.outer
                    # out_index values repeat, so bypass outer.gather()
                    # (whose fast paths assume distinct live indices).
                    if isinstance(outer, RowBlock) and 2 * len(sel) < outer.length:
                        rows = outer.rows
                        return [rows[out_index[i]][position] for i in sel]
                    source = outer.column(position)
                    return [source[out_index[i]] for i in sel]
                inner_position = position - self.outer_width
                inner_rows = self.inner_rows
                return [inner_rows[i][inner_position] for i in sel]
            column = self.column(position)
        if len(sel) == self.length:
            return column
        return [column[i] for i in sel]

    def with_selection(self, selection: Selection) -> "JoinBlock":
        return JoinBlock(
            self.outer,
            self.outer_width,
            self.out_index,
            self.inner_rows,
            selection,
            self._columns,
        )


# ----------------------------------------------------------------------
# Comparison semantics, raise-safety and cost heuristics
# ----------------------------------------------------------------------

# Types whose values the interpreter compares directly (no coercion),
# so identical concrete types can skip sql_compare's dispatch. Exact
# type checks keep bool (a subclass of int) and datetime (a subclass of
# date) on the general path.
_DIRECT_COMPARE = frozenset({int, float, str, decimal.Decimal, datetime.date})

_NULL_TYPES = frozenset({type(None), SqlNull})


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


_COMPARISON_CHECKS = {
    ComparisonOp.EQ: lambda cmp: cmp == 0,
    ComparisonOp.NE: lambda cmp: cmp != 0,
    ComparisonOp.LT: lambda cmp: cmp < 0,
    ComparisonOp.LE: lambda cmp: cmp <= 0,
    ComparisonOp.GT: lambda cmp: cmp > 0,
    ComparisonOp.GE: lambda cmp: cmp >= 0,
}


def _is_constant(expression: Expression) -> bool:
    if isinstance(expression, (ColumnRef, Parameter, Aggregate)):
        return False
    return all(_is_constant(child) for child in expression.children())


def _may_raise(expression: Expression) -> bool:
    """Conservative: can evaluating this subtree raise on some row?

    Arithmetic raises on type errors / division by zero, CASE hides
    (and order-gates) raising arms, aggregates always raise per-row,
    and date-part extraction raises on non-date operands. Plain
    comparisons over typed columns only raise on planning bugs, which
    both engines would hit; host variables are bound before the first
    row (``api.execute``) and compare like the literal they stand for.
    """
    if isinstance(expression, (Arithmetic, CaseWhen, Aggregate, DatePart)):
        return True
    return any(_may_raise(child) for child in expression.children())


def _node_count(expression: Expression) -> int:
    return 1 + sum(_node_count(child) for child in expression.children())


def _and_rank(term: "_Term") -> float:
    # Cheapest work per unit of rows *removed*: cost / (1 - selectivity).
    return term.cost / max(1e-6, 1.0 - min(term.hint, 0.999))


def _or_rank(term: "_Term") -> float:
    # Cheapest work per unit of rows *accepted*: cost / selectivity.
    return term.cost / max(1e-6, min(max(term.hint, 0.001), 1.0))


# ----------------------------------------------------------------------
# Terms
# ----------------------------------------------------------------------


class _Term:
    """One predicate node in vector form; see the module docstring for
    the four views. A leaf implements ``values`` (and may override
    ``true_of`` with a faster loop); a composite implements the three
    filter views, and its ``values`` derive from ``or_filter``."""

    __slots__ = ("expression", "cost", "hint", "pure_bool", "no_raise")

    def __init__(
        self,
        expression: Expression,
        cost: float,
        hint: float,
        pure_bool: bool,
        no_raise: bool,
    ):
        self.expression = expression
        self.cost = cost
        self.hint = hint
        self.pure_bool = pure_bool
        self.no_raise = no_raise

    def values(self, batch: VectorBatch, sel: Selection) -> List[Any]:
        accepted, unknowns = self.or_filter(batch, sel)
        hit, unknown = set(accepted), set(unknowns)
        return [
            True if i in hit else None if i in unknown else False for i in sel
        ]

    def true_of(self, batch: VectorBatch, sel: Selection) -> Selection:
        values = self.values(batch, sel)
        return [i for i, value in zip(sel, values) if value is True]

    def and_filter(
        self, batch: VectorBatch, sel: Selection
    ) -> Tuple[Selection, Selection]:
        survivors: Selection = []
        unknowns: Selection = []
        keep = survivors.append
        flag = unknowns.append
        for i, value in zip(sel, self.values(batch, sel)):
            if value is False:
                continue
            keep(i)
            if value is None:
                flag(i)
        return survivors, unknowns

    def or_filter(
        self, batch: VectorBatch, sel: Selection
    ) -> Tuple[Selection, Selection]:
        accepted: Selection = []
        unknowns: Selection = []
        keep = accepted.append
        flag = unknowns.append
        for i, value in zip(sel, self.values(batch, sel)):
            if value is True:
                keep(i)
            elif value is None:
                flag(i)
        return accepted, unknowns


class _ValueLeaf(_Term):
    """Any predicate node over a value kernel: its values are the
    kernel's, read with the identity semantics of the module docstring
    (a bare column or a CASE used as a predicate flows through)."""

    __slots__ = ("_kernel",)

    def __init__(self, expression, kernel: "ValueKernel", cost, hint):
        super().__init__(
            expression,
            cost,
            hint,
            isinstance(expression, _PREDICATE_SHAPED),
            not _may_raise(expression),
        )
        self._kernel = kernel

    def values(self, batch, sel):
        return self._kernel(batch, sel)


# --- comparison against a constant: the hot leaf --------------------

def _slow_true(value: Any, constant: Any, check: Callable[[int], bool]) -> bool:
    cmp = sql_compare(value, constant)
    return cmp is not None and check(cmp)


def _true_eq(column, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := column[i]) is kind and v == constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _true_ne(column, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := column[i]) is kind and v != constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _true_lt(column, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := column[i]) is kind and v < constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _true_le(column, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := column[i]) is kind and v <= constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _true_gt(column, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := column[i]) is kind and v > constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _true_ge(column, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := column[i]) is kind and v >= constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


_TRUE_LOOPS = {
    ComparisonOp.EQ: _true_eq,
    ComparisonOp.NE: _true_ne,
    ComparisonOp.LT: _true_lt,
    ComparisonOp.LE: _true_le,
    ComparisonOp.GT: _true_gt,
    ComparisonOp.GE: _true_ge,
}


# Row-direct twins of the loops above: ``rows[i][position]`` instead of
# ``column[i]``, so a predicate over a fresh RowBlock (straight off a
# scan) never pays the column transpose at all.


def _rows_eq(rows, position, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := rows[i][position]) is kind and v == constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _rows_ne(rows, position, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := rows[i][position]) is kind and v != constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _rows_lt(rows, position, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := rows[i][position]) is kind and v < constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _rows_le(rows, position, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := rows[i][position]) is kind and v <= constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _rows_gt(rows, position, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := rows[i][position]) is kind and v > constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


def _rows_ge(rows, position, sel, constant, kind, check):
    return [
        i
        for i in sel
        if (type(v := rows[i][position]) is kind and v >= constant)
        or (type(v) is not kind and _slow_true(v, constant, check))
    ]


_ROWS_LOOPS = {
    ComparisonOp.EQ: _rows_eq,
    ComparisonOp.NE: _rows_ne,
    ComparisonOp.LT: _rows_lt,
    ComparisonOp.LE: _rows_le,
    ComparisonOp.GT: _rows_gt,
    ComparisonOp.GE: _rows_ge,
}


class _CompareConstLeaf(_Term):
    """``column <op> constant`` with the constant's exact type guarding
    a direct comparison."""

    __slots__ = ("position", "op", "constant", "kind", "_loop", "_rows_loop", "_check")

    def __init__(self, expression, position, op, constant, hint):
        super().__init__(expression, 1.0, hint, True, True)
        self.position = position
        self.op = op
        self.constant = constant
        self.kind = type(constant)
        self._loop = _TRUE_LOOPS[op]
        self._rows_loop = _ROWS_LOOPS[op]
        self._check = _COMPARISON_CHECKS[op]

    def _true_against(self, batch, sel, constant, kind):
        """Rows of ``sel`` whose column compares True against a
        direct-comparable ``constant`` of exact type ``kind``."""
        position = self.position
        if type(batch) is RowBlock and position not in batch._columns:
            return self._rows_loop(
                batch.rows, position, sel, constant, kind, self._check
            )
        return self._loop(
            batch.column(position), sel, constant, kind, self._check
        )

    def true_of(self, batch, sel):
        return self._true_against(batch, sel, self.constant, self.kind)

    def _value(self) -> Any:
        return self.constant

    def values(self, batch, sel):
        constant, check = self._value(), self._check
        return [
            None if (cmp := _compare(v, constant)) is None else check(cmp)
            for v in batch.gather(self.position, sel)
        ]


class _CompareParamLeaf(_CompareConstLeaf):
    """``column <op> :param`` — the constant leaf with its constant
    resolved once per block through the thread-local scope. The value
    is never stored on the kernel, which concurrent executions with
    different bindings share."""

    __slots__ = ("name",)

    def __init__(self, expression, position, op, name, hint):
        super().__init__(expression, position, op, None, hint)
        self.name = name

    def _value(self) -> Any:
        return active_value(self.name)

    def true_of(self, batch, sel):
        value = active_value(self.name)
        kind = type(value)
        if kind in _DIRECT_COMPARE:
            return self._true_against(batch, sel, value, kind)
        if value is None or value is NULL:
            return []
        check = self._check
        return [
            i
            for i, v in zip(sel, batch.gather(self.position, sel))
            if (cmp := _compare(v, value)) is not None and check(cmp)
        ]


class _IsNullLeaf(_Term):
    """``column IS [NOT] NULL`` — two-valued, never unknown."""

    __slots__ = ("position", "negated")

    def __init__(self, expression, position, hint):
        super().__init__(expression, 0.8, hint, True, True)
        self.position = position
        self.negated = expression.negated

    def true_of(self, batch, sel):
        column = batch.column(self.position)
        if self.negated:
            return [
                i
                for i in sel
                if (v := column[i]) is not None and v is not NULL
            ]
        return [i for i in sel if (v := column[i]) is None or v is NULL]

    def values(self, batch, sel):
        return _is_null_values(batch.gather(self.position, sel), self.negated)


def _is_null_values(values: Sequence[Any], negated: bool) -> List[bool]:
    return [(v is None or v is NULL) != negated for v in values]


def _slow_membership(needle: Any, values: Sequence[Any]) -> bool:
    if needle is None or needle is NULL:
        return False
    for value in values:
        cmp = _compare(needle, value)
        if cmp is not None and cmp == 0:
            return True
    return False


class _InListLeaf(_Term):
    """``column IN (constants)`` with hoisted values.

    When every value shares one direct-comparable type, exact-type rows
    use a C-level ``in`` scan; everything else walks the values with
    ``_compare`` like the interpreter (NULL-in-list semantics included).
    """

    __slots__ = ("position", "constants", "kind")

    def __init__(self, expression, position, values, hint):
        super().__init__(
            expression, 1.0 + 0.3 * len(values), hint, True, True
        )
        self.position = position
        self.constants = tuple(values)
        kinds = {type(value) for value in values}
        self.kind = (
            kinds.pop() if len(kinds) == 1 and kinds & _DIRECT_COMPARE else None
        )

    def true_of(self, batch, sel):
        column = batch.column(self.position)
        values = self.constants
        kind = self.kind
        if kind is not None:
            return [
                i
                for i in sel
                if (type(v := column[i]) is kind and v in values)
                or (type(v) is not kind and _slow_membership(v, values))
            ]
        return [i for i in sel if _slow_membership(column[i], values)]

    def values(self, batch, sel):
        values = self.constants
        out: List[Any] = []
        append = out.append
        for needle in batch.gather(self.position, sel):
            if needle is None or needle is NULL:
                append(None)
                continue
            result: Optional[bool] = False
            for value in values:
                cmp = _compare(needle, value)
                if cmp is None:
                    result = None
                elif cmp == 0:
                    result = True
                    break
            append(result)
        return out


# --- boolean composition ---------------------------------------------


class _NotTerm(_Term):
    """NOT over a predicate-shaped term (always {True, False, None})."""

    __slots__ = ("inner",)

    def __init__(self, expression, inner: _Term, hint):
        super().__init__(
            expression, inner.cost + 0.1, hint, True, inner.no_raise
        )
        self.inner = inner

    def true_of(self, batch, sel):
        # NOT is True exactly where the inner term is False.
        survivors, _unknowns = self.inner.and_filter(batch, sel)
        alive = set(survivors)
        return [i for i in sel if i not in alive]

    def and_filter(self, batch, sel):
        # NOT is False exactly where the inner term is True.
        accepted, unknowns = self.inner.or_filter(batch, sel)
        dropped = set(accepted)
        return [i for i in sel if i not in dropped], unknowns

    def or_filter(self, batch, sel):
        survivors, unknowns = self.inner.and_filter(batch, sel)
        alive = set(survivors)
        return [i for i in sel if i not in alive], unknowns


class _Composite(_Term):
    """AND / OR over child terms, run in ``terms`` order.

    The order is decided once, here: raise-free children are ranked by
    the subclass's ``_rank`` (cost over rows removed or accepted, from
    their selectivity hints); if any child can raise, the children keep
    source order. Evaluating a block never changes a term.
    """

    __slots__ = ("terms",)
    _rank: Callable[[_Term], float]

    def __init__(self, expression, terms: List[_Term], hint):
        no_raise = all(term.no_raise for term in terms)
        super().__init__(
            expression,
            sum(term.cost for term in terms) + 0.1,
            hint,
            True,
            no_raise,
        )
        self.terms = sorted(terms, key=self._rank) if no_raise else terms


class _AndTerm(_Composite):
    """Conjunction with cost-ordered short-circuiting.

    The fast path (every child raise-free *and* strictly boolean)
    narrows the selection through each child's True set — the True set
    of an AND is the intersection of its children's, so order does not
    change the result, only the work. Mixed/raising children take the
    strict path: candidates survive while not-False, unknown flags ride
    along, and source order is preserved whenever any child can raise.
    """

    __slots__ = ("fast",)
    _rank = staticmethod(_and_rank)

    def __init__(self, expression, terms: List[_Term], hint):
        super().__init__(expression, terms, hint)
        self.fast = self.no_raise and all(term.pure_bool for term in terms)

    def true_of(self, batch, sel):
        if self.fast:
            for term in self.terms:
                if not sel:
                    break
                sel = term.true_of(batch, sel)
            return sel
        survivors, unknowns = self.and_filter(batch, sel)
        if unknowns:
            flagged = set(unknowns)
            survivors = [i for i in survivors if i not in flagged]
        return survivors

    def and_filter(self, batch, sel):
        candidates = sel
        flagged: set = set()
        for term in self.terms:
            if not candidates:
                break
            candidates, unknowns = term.and_filter(batch, candidates)
            if unknowns:
                flagged.update(unknowns)
        if flagged:
            unknowns = [i for i in candidates if i in flagged]
        else:
            unknowns = []
        return candidates, unknowns

    def or_filter(self, batch, sel):
        survivors, unknowns = self.and_filter(batch, sel)
        if unknowns:
            flagged = set(unknowns)
            accepted = [i for i in survivors if i not in flagged]
        else:
            accepted = survivors
        return accepted, unknowns


class _OrTerm(_Composite):
    """Disjunction with accepted-row bypass.

    Each disjunct only sees rows no earlier disjunct accepted — exactly
    the interpreter's short-circuit, lifted to the selection vector.
    Ordering (cheapest, most-accepting first) is gated on raise-safety
    like the conjunction.
    """

    __slots__ = ()
    _rank = staticmethod(_or_rank)

    def _scan(self, batch, sel, track_unknowns):
        candidates = sel
        parts: List[Selection] = []
        flagged: Optional[set] = set() if track_unknowns else None
        for term in self.terms:
            if not candidates:
                break
            if track_unknowns:
                accepted, unknowns = term.or_filter(batch, candidates)
                if unknowns:
                    flagged.update(unknowns)
            else:
                accepted = term.true_of(batch, candidates)
            if accepted:
                parts.append(accepted)
                hit = set(accepted)
                candidates = [i for i in candidates if i not in hit]
        if not parts:
            accepted_all: Selection = []
        elif len(parts) == 1:
            accepted_all = parts[0]
        else:
            accepted_all = sorted(chain.from_iterable(parts))
        return accepted_all, candidates, flagged

    def true_of(self, batch, sel):
        accepted, _rest, _flagged = self._scan(batch, sel, False)
        return accepted

    def or_filter(self, batch, sel):
        accepted, rest, flagged = self._scan(batch, sel, True)
        unknowns = [i for i in rest if i in flagged] if flagged else []
        return accepted, unknowns

    def and_filter(self, batch, sel):
        accepted, rest, flagged = self._scan(batch, sel, True)
        if flagged:
            unknowns = [i for i in rest if i in flagged]
            alive = set(accepted).union(unknowns)
            survivors = [i for i in sel if i in alive]
        else:
            unknowns = []
            survivors = accepted
        return survivors, unknowns


# ----------------------------------------------------------------------
# Term construction
# ----------------------------------------------------------------------

_PREDICATE_SHAPED = (Comparison, BooleanExpr, Not, IsNull, InList)


def _fold(expression: Expression) -> Any:
    return evaluate(expression, RowSchema(()), ())


def _fold_direct_constant(expression: Expression) -> Optional[Any]:
    if not _is_constant(expression):
        return None
    try:
        value = _fold(expression)
    except Exception:
        return None
    if type(value) in _DIRECT_COMPARE:
        return value
    return None


def _build_term(
    expression: Expression,
    schema: RowSchema,
    selectivity: Optional[Selectivity],
) -> _Term:
    estimate = selectivity(expression) if selectivity is not None else None
    hint = 0.5 if estimate is None else estimate

    if isinstance(expression, BooleanExpr):
        terms = [
            _build_term(operand, schema, selectivity)
            for operand in expression.operands
        ]
        if expression.op is BooleanOp.AND:
            return _AndTerm(expression, terms, hint)
        return _OrTerm(expression, terms, hint)

    if isinstance(expression, Not) and isinstance(
        expression.operand, _PREDICATE_SHAPED
    ):
        inner = _build_term(expression.operand, schema, selectivity)
        return _NotTerm(expression, inner, hint)

    if _is_constant(expression):
        return _ValueLeaf(
            expression, _build_value_kernel(expression, schema), 0.1, hint
        )

    if isinstance(expression, Comparison):
        left, right, op = expression.left, expression.right, expression.op
        if isinstance(right, ColumnRef):
            left, right, op = right, left, op.flipped()
        if isinstance(left, ColumnRef):
            position = schema.position(left)
            constant = _fold_direct_constant(right)
            if constant is not None:
                return _CompareConstLeaf(
                    expression, position, op, constant, hint
                )
            if isinstance(right, Parameter):
                return _CompareParamLeaf(
                    expression, position, op, right.name, hint
                )
        kernel = _comparison_kernel(expression, schema)

    elif isinstance(expression, IsNull):
        if isinstance(expression.operand, ColumnRef):
            position = schema.position(expression.operand)
            return _IsNullLeaf(expression, position, hint)
        kernel = _is_null_kernel(expression, schema)

    elif isinstance(expression, InList):
        values = _fold_list(expression.values)
        if values is not None and isinstance(expression.operand, ColumnRef):
            position = schema.position(expression.operand)
            return _InListLeaf(expression, position, values, hint)
        kernel = _in_list_kernel(expression, schema)

    elif isinstance(expression, Not):
        kernel = _not_kernel(expression, schema)

    else:
        kernel = _build_value_kernel(expression, schema)
    return _ValueLeaf(
        expression, kernel, max(1.0, _node_count(expression) - 1.0), hint
    )


def _fold_list(values: Sequence[Expression]) -> Optional[List[Any]]:
    """The values of an all-constant IN list, or None when some value
    is not constant or its fold raises (the error then surfaces per
    row, where the interpreter raises it)."""
    if not all(_is_constant(value) for value in values):
        return None
    try:
        return [_fold(value) for value in values]
    except Exception:
        return None


def _reference_rows(
    expressions: Sequence[Expression],
    schema: RowSchema,
    batch: VectorBatch,
    sel: Sequence[int],
) -> List[Row]:
    """The interpreter's values of ``expressions`` on the live rows,
    row-major: how a block whose column pass raised is re-run, so the
    error (or, if none, the result) is the interpreted engine's."""
    row = batch.row
    return [
        tuple(evaluate(e, schema, row(i)) for e in expressions)
        for i in sel
    ]


class VectorFilter:
    """Compiled selection-vector predicate: ``filter(batch) -> selection``."""

    __slots__ = ("expression", "schema", "root")

    def __init__(
        self,
        expression: Expression,
        schema: RowSchema,
        selectivity: Optional[Selectivity] = None,
    ):
        self.expression = expression
        self.schema = schema
        self.root = _build_term(expression, schema, selectivity)

    def __call__(self, batch: VectorBatch) -> Selection:
        sel = batch.live()
        if type(sel) is range:
            sel = list(sel)
        if not sel:
            return []
        try:
            return self.root.true_of(batch, sel)
        except Exception:
            _count("vector.fallback_terms")
            rows = _reference_rows((self.expression,), self.schema, batch, sel)
            return [i for i, (value,) in zip(sel, rows) if value is True]


_FILTER_MEMO = KernelMemo()


def compile_vector_filter(
    expression: Expression,
    schema: RowSchema,
    selectivity: Optional[Selectivity] = None,
) -> VectorFilter:
    """Memoized per (expression, schema). ``selectivity`` (a catalog
    estimate per predicate subtree, ``None`` when unknown) is consulted
    only when the kernel is built, so the term order follows the
    statistics current at the first compile of ``(expression, schema)``
    and stays fixed for every later execution, whatever its bindings.
    The order affects work, never rows."""
    _count("vector.filter_calls")
    key = (expression, schema)
    cached = _FILTER_MEMO.get(key)
    if cached is not None:
        _count("vector.filter_memo_hits")
        return cached
    kernel = VectorFilter(expression, schema, selectivity)
    _FILTER_MEMO.put(key, kernel)
    return kernel


# ----------------------------------------------------------------------
# Value and projection kernels
# ----------------------------------------------------------------------

ValueKernel = Callable[[VectorBatch, Selection], List[Any]]

_VALUE_MEMO = KernelMemo()

_ARITHMETIC_FNS = {
    ArithmeticOp.ADD: operator.add,
    ArithmeticOp.SUB: operator.sub,
    ArithmeticOp.MUL: operator.mul,
    ArithmeticOp.DIV: operator.truediv,
}
# Operand types the arithmetic kernel may combine with one ``map`` over
# both columns: no NULLs, no bools, and (checked per side) no Decimal
# meeting a float, which the loop coerces first.
_PLAIN_NUMBERS = frozenset({int, float, decimal.Decimal})


def clear_vector_cache() -> None:
    """Drop memoized vector kernels (tests that count compilations)."""
    _FILTER_MEMO.clear()
    _VALUE_MEMO.clear()


def vector_value_kernel(
    expression: Expression, schema: RowSchema
) -> ValueKernel:
    """``kernel(batch, sel) -> values`` aligned with ``sel``.

    Column references gather (or alias the column outright when the
    selection is dense); arithmetic combines child columns with the
    interpreter's exact NULL/coercion rules — as one C-level ``map``
    when both columns' type censuses are plain numbers with no NULL and
    no Decimal meeting a float, re-running the per-row loop (same
    result, same error at the same row) if that map raises; CASE runs
    each arm on its branch's rows only; a predicate-shaped expression
    takes its values from its term. A column pass may meet a different
    row's error first than the interpreter would, so a block whose pass
    raises is re-run through the interpreter, like every entry point of
    this module.
    """
    key = (expression, schema)
    cached = _VALUE_MEMO.get(key)
    if cached is not None:
        return cached
    kernel = _build_value_kernel(expression, schema)

    def checked(batch: VectorBatch, sel: Selection) -> List[Any]:
        try:
            return kernel(batch, sel)
        except Exception:
            _count("vector.fallback_terms")
            rows = _reference_rows((expression,), schema, batch, sel)
            return [value for (value,) in rows]

    _VALUE_MEMO.put(key, checked)
    return checked


def _build_value_kernel(
    expression: Expression, schema: RowSchema
) -> ValueKernel:
    if isinstance(expression, ColumnRef):
        position = schema.position(expression)

        def gather(batch: VectorBatch, sel: Selection) -> List[Any]:
            return batch.gather(position, sel)

        return gather

    if isinstance(expression, Parameter):
        name = expression.name
        return lambda batch, sel: [active_value(name)] * len(sel)

    if _is_constant(expression):
        try:
            value = _fold(expression)
        except Exception:
            # Defer the fold error to the first row, like the interpreter.
            return lambda batch, sel: [_fold(expression) for _ in sel]
        return lambda batch, sel: [value] * len(sel)

    if isinstance(expression, _PREDICATE_SHAPED):
        return _build_term(expression, schema, None).values
    if isinstance(expression, Arithmetic):
        return _arithmetic_kernel(expression, schema)
    if isinstance(expression, DatePart):
        return _date_part_kernel(expression, schema)
    if isinstance(expression, CaseWhen):
        return _case_kernel(expression, schema)

    # Only an aggregate is left, and evaluating one per record raises.
    def per_record(batch: VectorBatch, sel: Selection) -> List[Any]:
        return [evaluate(expression, schema, batch.row(i)) for i in sel]

    return per_record


def _arithmetic_kernel(
    expression: Arithmetic, schema: RowSchema
) -> ValueKernel:
    left_kernel = _build_value_kernel(expression.left, schema)
    right_kernel = _build_value_kernel(expression.right, schema)
    apply = _ARITHMETIC_FNS[expression.op]
    op = expression.op
    Decimal = decimal.Decimal

    def arithmetic(batch: VectorBatch, sel: Selection) -> List[Any]:
        lefts = left_kernel(batch, sel)
        rights = right_kernel(batch, sel)
        left_kinds = set(map(type, lefts))
        right_kinds = set(map(type, rights))
        if (
            left_kinds <= _PLAIN_NUMBERS
            and right_kinds <= _PLAIN_NUMBERS
            and not (Decimal in left_kinds and float in right_kinds)
            and not (float in left_kinds and Decimal in right_kinds)
        ):
            try:
                return list(map(apply, lefts, rights))
            except ArithmeticError:
                pass  # the loop below raises the failing row's error
        out: List[Any] = []
        append = out.append
        for left, right in zip(lefts, rights):
            if left is None or right is None or left is NULL or right is NULL:
                append(None)
                continue
            if isinstance(left, Decimal) and isinstance(right, float):
                right = Decimal(str(right))
            elif isinstance(right, Decimal) and isinstance(left, float):
                left = Decimal(str(left))
            try:
                append(apply(left, right))
            except (TypeError, decimal.InvalidOperation) as exc:
                raise ExpressionError(
                    f"cannot compute {left!r} {op.value} {right!r}"
                ) from exc
            except ZeroDivisionError:
                raise ExpressionError(
                    f"division by zero in {expression}"
                ) from None
        return out

    return arithmetic


def _date_part_kernel(expression: DatePart, schema: RowSchema) -> ValueKernel:
    operand = _build_value_kernel(expression.operand, schema)
    part = expression.part
    extract = operator.attrgetter(part)

    def date_part(batch: VectorBatch, sel: Selection) -> List[Any]:
        values = operand(batch, sel)
        if _NULL_TYPES.isdisjoint(map(type, values)):
            try:
                return list(map(extract, values))
            except AttributeError:
                pass  # the loop below raises the failing row's error
        out: List[Any] = []
        for value in values:
            if value is None or value is NULL:
                out.append(None)
                continue
            try:
                out.append(getattr(value, part))
            except AttributeError as exc:
                raise ExpressionError(
                    f"cannot extract {part} from {value!r}"
                ) from exc
        return out

    return date_part


def _case_kernel(expression: CaseWhen, schema: RowSchema) -> ValueKernel:
    condition = expression.condition
    if isinstance(condition, _PREDICATE_SHAPED):
        # Its values are True / False / None: truthy exactly when True.
        branch = _build_term(condition, schema, None).true_of
    else:
        condition_kernel = _build_value_kernel(condition, schema)

        def branch(batch: VectorBatch, sel: Selection) -> Selection:
            return [i for i, v in zip(sel, condition_kernel(batch, sel)) if v]

    then_kernel = _build_value_kernel(expression.then_value, schema)
    else_kernel = _build_value_kernel(expression.else_value, schema)

    def case(batch: VectorBatch, sel: Selection) -> List[Any]:
        then_sel = branch(batch, sel)
        if not then_sel:
            return else_kernel(batch, sel)
        if len(then_sel) == len(sel):
            return then_kernel(batch, sel)
        taken = set(then_sel)
        else_sel = [i for i in sel if i not in taken]
        merged = dict(zip(then_sel, then_kernel(batch, then_sel)))
        merged.update(zip(else_sel, else_kernel(batch, else_sel)))
        return [merged[i] for i in sel]

    return case


def _comparison_kernel(
    expression: Comparison, schema: RowSchema
) -> ValueKernel:
    left_kernel = _build_value_kernel(expression.left, schema)
    right_kernel = _build_value_kernel(expression.right, schema)
    check = _COMPARISON_CHECKS[expression.op]

    def comparison(batch: VectorBatch, sel: Selection) -> List[Any]:
        lefts = left_kernel(batch, sel)
        rights = right_kernel(batch, sel)
        return [
            None if (cmp := _compare(left, right)) is None else check(cmp)
            for left, right in zip(lefts, rights)
        ]

    return comparison


def _is_null_kernel(expression: IsNull, schema: RowSchema) -> ValueKernel:
    operand = _build_value_kernel(expression.operand, schema)
    negated = expression.negated
    return lambda batch, sel: _is_null_values(operand(batch, sel), negated)


def _not_kernel(expression: Not, schema: RowSchema) -> ValueKernel:
    operand = _build_value_kernel(expression.operand, schema)
    return lambda batch, sel: [
        None if value is None else not value for value in operand(batch, sel)
    ]


def _in_list_kernel(expression: InList, schema: RowSchema) -> ValueKernel:
    """IN over a list the interpreter evaluates per row: each value runs
    only on the rows no earlier value matched (and never for a NULL
    needle), as the interpreter's loop does."""
    needle_kernel = _build_value_kernel(expression.operand, schema)
    value_kernels = [
        _build_value_kernel(value, schema) for value in expression.values
    ]

    def membership(batch: VectorBatch, sel: Selection) -> List[Any]:
        needles = needle_kernel(batch, sel)
        out: List[Any] = [None] * len(sel)
        pending = [
            j
            for j, needle in enumerate(needles)
            if needle is not None and needle is not NULL
        ]
        unknown: set = set()
        for kernel in value_kernels:
            if not pending:
                break
            undecided = []
            values = kernel(batch, [sel[j] for j in pending])
            for j, value in zip(pending, values):
                cmp = _compare(needles[j], value)
                if cmp == 0:
                    out[j] = True
                    continue
                if cmp is None:
                    unknown.add(j)
                undecided.append(j)
            pending = undecided
        for j in pending:
            out[j] = None if j in unknown else False
        return out

    return membership


def vector_projection_kernel(
    expressions: Sequence[Expression], schema: RowSchema
) -> Callable[[VectorBatch], ColumnBlock]:
    """``kernel(batch) -> dense ColumnBlock`` of the output columns.

    A block whose column pass raises is re-run row-major through the
    interpreter, so it fails with the interpreted engine's error."""
    kernels = [
        vector_value_kernel(expression, schema) for expression in expressions
    ]

    def project(batch: VectorBatch) -> ColumnBlock:
        sel = batch.live()
        if type(sel) is range:
            sel = list(sel)
        try:
            columns = [kernel(batch, sel) for kernel in kernels]
        except Exception:
            # Raised by a value kernel's own re-run, which counted the
            # block; the interpreter's error over all columns may come
            # from an earlier row of another column.
            rows = _reference_rows(expressions, schema, batch, sel)
            columns = [list(column) for column in zip(*rows)]
        return ColumnBlock(columns, len(sel))

    return project
