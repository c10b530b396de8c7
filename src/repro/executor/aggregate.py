"""Aggregation and duplicate elimination operators.

Grouping needs equality, not order, so group and DISTINCT markers are
the grouping columns' ``group_key`` values — equal exactly when their
``sort_key``s are — built in both engines by
:func:`repro.executor.operators.group_markers`; a column of plain values
is its own marker column. Group-by has two bodies behind one
``_blocks``: in ``vector`` mode markers and aggregate arguments are
gathered column-wise off the child's blocks and folded a run at a time
(``_Accumulator.add_run``, which reads each run's type census; the
sorted group-by folds a block's closed runs as columns instead, unless
a DISTINCT slot, a NULL in the block or a MIN / MAX over a mixed census
needs the accumulators); in ``interpreted`` mode the row-at-a-time reference body feeds each
accumulator through a counted interpreter thunk. SUM, AVG and COUNT
over one argument with one DISTINCT flag share one accumulator slot: one
left-to-right fold keeps the total and the count all three read (AVG is
SUM over COUNT), so that argument is projected and folded once. MIN,
MAX and COUNT(*) keep a slot each. An aggregate without
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
    run_starts,
)
from repro.expr.evaluate import evaluate
from repro.expr.nodes import Aggregate, AggregateKind, ColumnRef, Expression
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

    def result(self, kind: Optional[AggregateKind] = None) -> Any:
        """The aggregate's value; ``kind`` reads a shared SUM / AVG /
        COUNT fold as another of the three."""
        kind = self.kind if kind is None else kind
        if kind is AggregateKind.COUNT:
            return self.count
        if kind is AggregateKind.SUM:
            return self.total
        if kind is AggregateKind.AVG:
            if self.count == 0:
                return None
            return self.total / self.count
        return self.extreme


_COUNT_STAR = object()
_SHARED_FOLDS = frozenset(
    {AggregateKind.SUM, AggregateKind.AVG, AggregateKind.COUNT}
)
# How ``_closed_rows`` folds a closed run: ``add_run``'s left fold and
# its one-type ``min`` / ``max``.
_RUN_FOLDS = {
    AggregateKind.SUM: functools.partial(functools.reduce, operator.add),
    AggregateKind.AVG: functools.partial(functools.reduce, operator.add),
    AggregateKind.MIN: min,
    AggregateKind.MAX: max,
}


def _fold_run(accumulators, value_lists, start: int, end: int) -> None:
    """Fold rows ``[start, end)`` of a block's slot values (``None``:
    COUNT(*)) into one accumulator per slot."""
    for accumulator, values in zip(accumulators, value_lists):
        if values is None:
            accumulator.add_count(end - start)
        else:
            accumulator.add_run(values[start:end])


def _column_wise(aggregate: Aggregate, values: Optional[Sequence[Any]]) -> bool:
    """Whether a slot's closed runs in a block fold as columns, by one
    type census of the block's values."""
    if values is None:
        return True
    kinds = set(map(type, values))
    if aggregate.distinct or not kinds.isdisjoint(_NULL_TYPES):
        return False
    plain = len(kinds) == 1 and kinds <= _PLAIN_EXTREMES
    return plain or aggregate.kind not in (AggregateKind.MIN, AggregateKind.MAX)


class _GroupByBase(PhysicalOperator):
    """Shared plumbing for sort- and hash-based GROUP BY.

    Output schema: group columns (in declared order) followed by one
    column per aggregate, named ``ColumnRef("", alias)``. Aggregates map
    onto accumulator slots (``_slots``, each folded by one
    ``_Accumulator``) and are read back from them (``_reads``).
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
        # A shared slot folds as a SUM / AVG sharer when it has one
        # (COUNT alone does not fold the total).
        self._slots: List[Aggregate] = []
        self._reads: List[Tuple[int, AggregateKind]] = []
        shared: Dict[Tuple[Expression, bool], int] = {}
        for _name, aggregate in self.aggregates:
            kind, slot = aggregate.kind, len(self._slots)
            if kind in _SHARED_FOLDS and aggregate.argument is not None:
                key = (aggregate.argument, aggregate.distinct)
                slot = shared.setdefault(key, slot)
            if slot == len(self._slots):
                self._slots.append(aggregate)
            elif kind is not AggregateKind.COUNT:
                self._slots[slot] = aggregate
            self._reads.append((slot, kind))

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
                _fold_run(accumulators, value_lists, 0, block.count)
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
            for aggregate in self._slots
        ]

    def _argument_evaluators(self) -> List[Callable[[Row], Any]]:
        """One value-producing callable per slot for the row body
        (COUNT(*) yields the sentinel), built once per execution."""
        child_schema = self.child.schema
        evaluators: List[Callable[[Row], Any]] = []
        for aggregate in self._slots:
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
            accumulators[slot].result(kind) for slot, kind in self._reads
        )

    def _vector_inputs(
        self, context: ExecutionContext
    ) -> Iterator[Tuple[VectorBatch, List[Optional[Sequence[Any]]]]]:
        """Columnar group-by input: per non-empty child block, yields
        ``(block, argument_value_lists)``, one list per slot, aligned
        with the block's live selection (the order ``group_markers``
        sees).

        Slot arguments come straight off the block's columns — a
        join feeding a group-by never builds its wide concatenated
        tuples at all (COUNT(*) has a ``None`` value list; the
        accumulator loop substitutes the sentinel). They are one
        projection kernel, so a block whose arguments raise fails with
        the interpreted engine's error.
        """
        project = vector_projection_kernel(
            [
                aggregate.argument
                for aggregate in self._slots
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
                for aggregate in self._slots
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
        # The run continuing the carried group and the run open at a
        # block's end fold into accumulators; the closed runs between
        # fold as columns (``_closed_rows`` names the fallbacks).
        current_group: Any = _NO_GROUP
        current_raw: Tuple[Any, ...] = ()
        accumulators: List[_Accumulator] = []
        for block, value_lists in self._vector_inputs(context):
            markers, raw_cols = group_markers(block, self._group_positions)
            edges = [0, *run_starts(markers), len(markers)]
            if current_group is not _NO_GROUP:
                if markers[0] == current_group:
                    _fold_run(accumulators, value_lists, 0, edges[1])
                    if len(edges) == 2:
                        continue
                    del edges[0]
                yield self._output_row(current_raw, accumulators)
            yield from self._closed_rows(
                value_lists, raw_cols, edges[:-2], edges[1:-1]
            )
            last = edges[-2]
            current_group = markers[last]
            current_raw = tuple(col[last] for col in raw_cols)
            accumulators = self._new_accumulators()
            _fold_run(accumulators, value_lists, last, edges[-1])
        if current_group is not _NO_GROUP:
            yield self._output_row(current_raw, accumulators)

    def _closed_rows(self, value_lists, raw_cols, starts, ends) -> Iterator[Row]:
        """Output rows of the closed runs ``[starts[i], ends[i])``: each
        slot folds them all as columns (COUNT from the run lengths, the
        rest by ``_RUN_FOLDS``) unless one is not ``_column_wise`` (a
        DISTINCT slot, a NULL in the block or a MIN / MAX over a mixed
        census); then each run folds into its own accumulators."""
        columns = [list(map(col.__getitem__, starts)) for col in raw_cols]
        if not all(map(_column_wise, self._slots, value_lists)):
            runs = [self._new_accumulators() for _start in starts]
            for run, start, end in zip(runs, starts, ends):
                _fold_run(run, value_lists, start, end)
            return map(self._output_row, zip(*columns), runs)
        counts = list(map(operator.sub, ends, starts))
        folds: List[Optional[List[Any]]] = []
        for aggregate, values in zip(self._slots, value_lists):
            fold = _RUN_FOLDS.get(aggregate.kind)
            if values is None or fold is None:  # COUNT never adds values
                folds.append(None)
                continue
            slices = map(values.__getitem__, map(slice, starts, ends))
            folds.append(list(map(fold, slices)))
        for slot, kind in self._reads:
            if kind is AggregateKind.COUNT:
                columns.append(counts)
            elif kind is AggregateKind.AVG:
                columns.append(list(map(operator.truediv, folds[slot], counts)))
            else:
                columns.append(folds[slot])
        return zip(*columns)

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
        token = context.cancel_token
        for batch in self.child.batches(context):
            # Pipeline breaker: the whole input accumulates before the
            # first output batch, so checkpoint per input batch.
            if token is not None:
                token.check()
            markers, _ = group_markers(RowBlock(batch), positions)
            for marker, row in zip(markers, batch):
                entry = get(marker)
                if entry is None:
                    raw = tuple(row[position] for position in positions)
                    entry = (raw, self._new_accumulators())
                    groups[marker] = entry
                for accumulator, evaluator in zip(entry[1], evaluators):
                    accumulator.add(evaluator(row))
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
        for block, value_lists in self._vector_inputs(context):
            markers, raw_cols = group_markers(block, self._group_positions)
            n = len(markers)
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
                size = len(positions)
                # One C-level gather per bucket; with one position
                # ``itemgetter`` returns the value itself, not a tuple.
                gather = operator.itemgetter(*positions)
                for accumulator, values in zip(entry[1], value_lists):
                    if values is None:
                        accumulator.add_count(size)
                    elif size == n:
                        accumulator.add_run(values)
                    elif size == 1:
                        accumulator.add_run((gather(values),))
                    else:
                        accumulator.add_run(gather(values))
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
            starts = run_starts(markers)
            if previous is _NO_GROUP or markers[0] != previous:
                starts.insert(0, 0)
            previous = markers[-1]
            if starts:
                yield RowBlock(list(map(batch.__getitem__, starts)))

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

    def label(self) -> str:
        return "distinct (hash)"
