"""Aggregation and duplicate elimination operators.

Grouping needs equality, not order, so group and DISTINCT markers are
the grouping columns' ``group_key`` values — equal exactly when their
``sort_key``s are — built in both engines by
:func:`repro.executor.operators.group_markers`; a column of plain values
is its own marker column. Group-by has two bodies behind one
``_blocks``: in ``vector`` mode markers and aggregate arguments are
gathered column-wise off the child's blocks and folded a run at a time
(``_Accumulator.add_run``, which reads each run's type census); in
``interpreted`` mode the row-at-a-time reference body feeds each
aggregate through a counted interpreter thunk. An aggregate without
GROUP BY columns builds no markers: every row folds into its one
accumulator set, and it yields one row even over empty input. Output
rows are few, so every body lifts them into ``RowBlock``s. DISTINCT is
row-native: its markers cover every column of each row batch.
"""

from __future__ import annotations

import datetime
import decimal
import functools
import itertools
import operator
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.executor.context import ExecutionContext
from repro.executor.operators import (
    _NO_GROUP,
    Batch,
    PhysicalOperator,
    Row,
    count_interpreted,
    group_markers,
    row_blocks,
)
from repro.expr.evaluate import evaluate
from repro.expr.nodes import Aggregate, AggregateKind, ColumnRef
from repro.expr.schema import RowSchema
from repro.expr.vector import RowBlock, VectorBatch, vector_projection_kernel
from repro.sqltypes import NULL, SqlNull, is_null, sort_key

# Runs of one of these exact types take plain ``min`` / ``max``: their
# sort keys are ``(band, value)`` (dates: the ordinal), which order and
# tie exactly as the values do.
_PLAIN_EXTREMES = frozenset({int, str, decimal.Decimal, datetime.date})
_NULL_TYPES = frozenset({type(None), SqlNull})


class _Accumulator:
    """State for one aggregate within one group."""

    __slots__ = ("kind", "distinct", "total", "count", "extreme", "seen")

    def __init__(self, kind: AggregateKind, distinct: bool):
        self.kind = kind
        self.distinct = distinct
        self.total: Any = None
        self.count = 0
        self.extreme: Any = None
        self.seen: Optional[Set[Any]] = set() if distinct else None

    def add(self, value: Any) -> None:
        if self.kind is AggregateKind.COUNT and value is _COUNT_STAR:
            self.count += 1
            return
        if is_null(value):
            return
        if self.distinct:
            if value in self.seen:
                return
            self.seen.add(value)
        self.count += 1
        if self.kind in (AggregateKind.SUM, AggregateKind.AVG):
            self.total = value if self.total is None else self.total + value
        elif self.kind is AggregateKind.MIN:
            if self.extreme is None or sort_key(value) < sort_key(self.extreme):
                self.extreme = value
        elif self.kind is AggregateKind.MAX:
            if self.extreme is None or sort_key(value) > sort_key(self.extreme):
                self.extreme = value

    def add_count(self, n: int) -> None:
        """Fold ``n`` COUNT(*) contributions at once."""
        self.count += n

    def add_run(self, values: Sequence[Any]) -> None:
        """Fold a run of argument values in one call.

        Semantically identical to calling :meth:`add` per value (same
        left-to-right fold, same NULL and tie handling), with the
        per-value work in C: NULLs are found by the run's type census
        (never ``NULL in values`` — ``Decimal.__eq__`` against a
        non-number runs an ABC ``isinstance`` per element), SUM / AVG
        are ``functools.reduce(operator.add, ...)`` — the exact left
        fold; ``sum()`` may compensate float sums — and MIN / MAX of a
        one-type run are plain ``min`` / ``max``.
        """
        if self.distinct:
            for value in values:
                self.add(value)
            return
        kinds = set(map(type, values))
        if not kinds.isdisjoint(_NULL_TYPES):
            values = [
                value
                for value in values
                if value is not None and value is not NULL
            ]
            kinds -= _NULL_TYPES
        if not values:
            return
        self.count += len(values)
        kind = self.kind
        if kind in (AggregateKind.SUM, AggregateKind.AVG):
            # Keep the exact per-value fold order (float addition is
            # not associative; engines must stay byte-identical).
            total = self.total
            if total is None:
                total, values = values[0], itertools.islice(values, 1, None)
            self.total = functools.reduce(operator.add, values, total)
            return
        if kind is AggregateKind.COUNT:
            return
        plain = len(kinds) == 1 and kinds <= _PLAIN_EXTREMES
        if kind is AggregateKind.MIN:
            candidate = min(values) if plain else min(values, key=sort_key)
            if self.extreme is None or sort_key(candidate) < sort_key(
                self.extreme
            ):
                self.extreme = candidate
        else:
            candidate = max(values) if plain else max(values, key=sort_key)
            if self.extreme is None or sort_key(candidate) > sort_key(
                self.extreme
            ):
                self.extreme = candidate

    def result(self) -> Any:
        if self.kind is AggregateKind.COUNT:
            return self.count
        if self.kind is AggregateKind.SUM:
            return self.total
        if self.kind is AggregateKind.AVG:
            if self.count == 0:
                return None
            return self.total / self.count
        return self.extreme


_COUNT_STAR = object()


class _GroupByBase(PhysicalOperator):
    """Shared plumbing for sort- and hash-based GROUP BY.

    Output schema: group columns (in declared order) followed by one
    column per aggregate, named ``ColumnRef("", alias)``.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        group_columns: Sequence[ColumnRef],
        aggregates: Sequence[Tuple[str, Aggregate]],
    ):
        outputs = list(group_columns) + [
            ColumnRef("", name) for name, _aggregate in aggregates
        ]
        super().__init__(RowSchema(outputs))
        self.child = child
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        self._group_positions = [
            child.schema.position(column) for column in group_columns
        ]

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        if not self.group_columns:
            grouped = self._scalar(context)
        elif context.vectorized:
            grouped = self._grouped_vector(context)
        else:
            grouped = self._grouped(context)
        return row_blocks(grouped, context.batch_size)

    def _scalar(self, context: ExecutionContext) -> Iterator[Row]:
        """No GROUP BY columns: no markers; every input row folds into
        the one accumulator set (whole value lists at a time in
        ``vector`` mode), and one row comes out even over empty input."""
        accumulators = self._new_accumulators()
        if context.vectorized:
            for block, value_lists in self._vector_inputs(context):
                for accumulator, values in zip(accumulators, value_lists):
                    if values is None:
                        accumulator.add_count(block.count)
                    else:
                        accumulator.add_run(values)
        else:
            evaluators = self._argument_evaluators()
            for batch in self.child.batches(context):
                for row in batch:
                    for accumulator, evaluator in zip(accumulators, evaluators):
                        accumulator.add(evaluator(row))
        yield self._output_row((), accumulators)

    def _new_accumulators(self) -> List[_Accumulator]:
        return [
            _Accumulator(aggregate.kind, aggregate.distinct)
            for _name, aggregate in self.aggregates
        ]

    def _argument_evaluators(self) -> List[Callable[[Row], Any]]:
        """One value-producing callable per aggregate for the row body
        (COUNT(*) yields the sentinel), built once per execution."""
        child_schema = self.child.schema
        evaluators: List[Callable[[Row], Any]] = []
        for _name, aggregate in self.aggregates:
            argument = aggregate.argument
            if argument is None:
                evaluators.append(lambda row: _COUNT_STAR)
            else:

                def interpreted(
                    row: Row, argument=argument, schema=child_schema
                ) -> Any:
                    count_interpreted()
                    return evaluate(argument, schema, row)

                evaluators.append(interpreted)
        return evaluators

    def _output_row(
        self, group_values: Tuple[Any, ...], accumulators: List[_Accumulator]
    ) -> Row:
        return group_values + tuple(
            accumulator.result() for accumulator in accumulators
        )

    def _vector_inputs(
        self, context: ExecutionContext
    ) -> Iterator[Tuple[VectorBatch, List[Optional[Sequence[Any]]]]]:
        """Columnar group-by input: per non-empty child block, yields
        ``(block, argument_value_lists)``, the lists aligned with the
        block's live selection (the order ``group_markers`` sees).

        Aggregate arguments come straight off the block's columns — a
        join feeding a group-by never builds its wide concatenated
        tuples at all (COUNT(*) has a ``None`` value list; the
        accumulator loop substitutes the sentinel). They are one
        projection kernel, so a block whose arguments raise fails with
        the interpreted engine's error.
        """
        project = vector_projection_kernel(
            [
                aggregate.argument
                for _name, aggregate in self.aggregates
                if aggregate.argument is not None
            ],
            self.child.schema,
        )
        for block in self.child.blocks(context):
            if not block.count:
                continue
            columns = iter(project(block).columns)
            yield block, [
                None if aggregate.argument is None else next(columns)
                for _name, aggregate in self.aggregates
            ]


class SortedGroupByOp(_GroupByBase):
    """Order-based GROUP BY: input must arrive grouped (sorted on any
    permutation of the grouping columns — Section 7's degrees of
    freedom)."""

    def _grouped(self, context: ExecutionContext) -> Iterator[Row]:
        evaluators = self._argument_evaluators()
        positions = tuple(self._group_positions)
        current_group: Any = _NO_GROUP
        current_raw: Tuple[Any, ...] = ()
        accumulators: List[_Accumulator] = []
        for batch in self.child.batches(context):
            markers, _ = group_markers(RowBlock(batch), positions)
            for marker, row in zip(markers, batch):
                if current_group is _NO_GROUP or marker != current_group:
                    if current_group is not _NO_GROUP:
                        yield self._output_row(current_raw, accumulators)
                    current_group = marker
                    current_raw = tuple(
                        row[position] for position in positions
                    )
                    accumulators = self._new_accumulators()
                for accumulator, evaluator in zip(accumulators, evaluators):
                    accumulator.add(evaluator(row))
        if current_group is not _NO_GROUP:
            yield self._output_row(current_raw, accumulators)

    def _grouped_vector(self, context: ExecutionContext) -> Iterator[Row]:
        # Group changes are found by scanning the marker list for run
        # boundaries, then each aggregate folds the whole run at once —
        # the columnar win for sorted aggregation is run-at-a-time
        # accumulation, not per-row accumulator dispatch.
        current_group: Any = _NO_GROUP
        current_raw: Tuple[Any, ...] = ()
        accumulators: List[_Accumulator] = []
        for block, value_lists in self._vector_inputs(context):
            markers, raw_cols = group_markers(block, self._group_positions)
            n = len(markers)
            start = 0
            while start < n:
                marker = markers[start]
                end = start + 1
                while end < n and markers[end] == marker:
                    end += 1
                if current_group is _NO_GROUP or marker != current_group:
                    if current_group is not _NO_GROUP:
                        yield self._output_row(current_raw, accumulators)
                    current_group = marker
                    current_raw = tuple(col[start] for col in raw_cols)
                    accumulators = self._new_accumulators()
                for accumulator, values in zip(accumulators, value_lists):
                    if values is None:
                        accumulator.add_count(end - start)
                    else:
                        accumulator.add_run(values[start:end])
                start = end
        if current_group is not _NO_GROUP:
            yield self._output_row(current_raw, accumulators)

    def label(self) -> str:
        inner = ", ".join(str(column) for column in self.group_columns)
        return f"group by (sorted) [{inner}]"


class HashGroupByOp(_GroupByBase):
    """Hash-based GROUP BY: no input order required, none produced."""

    def _grouped(self, context: ExecutionContext) -> Iterator[Row]:
        evaluators = self._argument_evaluators()
        positions = tuple(self._group_positions)
        groups: Dict[Any, Tuple[Tuple[Any, ...], List[_Accumulator]]] = {}
        get = groups.get
        count = 0
        token = context.cancel_token
        for batch in self.child.batches(context):
            # Pipeline breaker: the whole input accumulates before the
            # first output batch, so checkpoint per input batch.
            if token is not None:
                token.check()
            markers, _ = group_markers(RowBlock(batch), positions)
            count += len(batch)
            for marker, row in zip(markers, batch):
                entry = get(marker)
                if entry is None:
                    raw = tuple(row[position] for position in positions)
                    entry = (raw, self._new_accumulators())
                    groups[marker] = entry
                for accumulator, evaluator in zip(entry[1], evaluators):
                    accumulator.add(evaluator(row))
        context.rows_hashed += count
        if len(groups) > context.sort_memory_rows:
            context.charge_spill(len(groups))
        for raw, accumulators in groups.values():
            yield self._output_row(raw, accumulators)

    def _grouped_vector(self, context: ExecutionContext) -> Iterator[Row]:
        # Insertion order of ``groups`` is first occurrence of each
        # marker — identical to the row path, so output order matches.
        # Rows are bucketed by marker within each block so aggregates
        # fold whole buckets (one dict probe and one append per row
        # instead of per-aggregate accumulator dispatch).
        groups: Dict[Any, Tuple[Tuple[Any, ...], List[_Accumulator]]] = {}
        get = groups.get
        count = 0
        for block, value_lists in self._vector_inputs(context):
            markers, raw_cols = group_markers(block, self._group_positions)
            n = len(markers)
            count += n
            buckets: Dict[Any, List[int]] = {}
            bucket_get = buckets.get
            for j, marker in enumerate(markers):
                positions = bucket_get(marker)
                if positions is None:
                    buckets[marker] = [j]
                else:
                    positions.append(j)
            if 2 * len(buckets) > n:
                # Mostly singleton groups: run folding would just add
                # slicing overhead, so dispatch per row as before.
                for j, marker in enumerate(markers):
                    entry = get(marker)
                    if entry is None:
                        raw = tuple(col[j] for col in raw_cols)
                        entry = (raw, self._new_accumulators())
                        groups[marker] = entry
                    for accumulator, values in zip(entry[1], value_lists):
                        accumulator.add(
                            _COUNT_STAR if values is None else values[j]
                        )
                continue
            for marker, positions in buckets.items():
                entry = get(marker)
                if entry is None:
                    first = positions[0]
                    raw = tuple(col[first] for col in raw_cols)
                    entry = (raw, self._new_accumulators())
                    groups[marker] = entry
                whole = len(positions) == n
                for accumulator, values in zip(entry[1], value_lists):
                    if values is None:
                        accumulator.add_count(len(positions))
                    elif whole:
                        accumulator.add_run(values)
                    else:
                        accumulator.add_run([values[j] for j in positions])
        context.rows_hashed += count
        if len(groups) > context.sort_memory_rows:
            context.charge_spill(len(groups))
        for raw, accumulators in groups.values():
            yield self._output_row(raw, accumulators)

    def label(self) -> str:
        inner = ", ".join(str(column) for column in self.group_columns)
        return f"group by (hash) [{inner}]"


class SortedDistinctOp(PhysicalOperator):
    """Order-based DISTINCT over a grouped input."""

    def __init__(self, child: PhysicalOperator):
        super().__init__(child.schema)
        self.child = child

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        every_column = range(len(self.schema))
        previous: Any = _NO_GROUP
        for batch in self.child.batches(context):
            markers, _ = group_markers(RowBlock(batch), every_column)
            kept: Batch = []
            for marker, row in zip(markers, batch):
                if previous is _NO_GROUP or marker != previous:
                    previous = marker
                    kept.append(row)
            if kept:
                yield RowBlock(kept)

    def label(self) -> str:
        return "distinct (sorted)"


class HashDistinctOp(PhysicalOperator):
    """Hash-based DISTINCT."""

    def __init__(self, child: PhysicalOperator):
        super().__init__(child.schema)
        self.child = child

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        every_column = range(len(self.schema))
        seen: Set[Any] = set()
        add = seen.add
        for batch in self.child.batches(context):
            markers, _ = group_markers(RowBlock(batch), every_column)
            kept: Batch = []
            for marker, row in zip(markers, batch):
                if marker in seen:
                    continue
                add(marker)
                kept.append(row)
            if kept:
                yield RowBlock(kept)
        context.rows_hashed += len(seen)

    def label(self) -> str:
        return "distinct (hash)"
