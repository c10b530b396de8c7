"""Leaf and unary physical operators: scans, filter, project, sort.

Operators implement one block-at-a-time protocol: ``_blocks(context)``
yields :class:`repro.expr.vector.VectorBatch` blocks (columns +
selection vector, at most ``context.batch_size`` rows each); the public
``blocks(context)`` wrapper adds per-operator runtime metrics (rows,
blocks, cumulative wall time) and the cancellation checkpoint.
``batches(context)`` / ``rows(context)`` / ``execute(context)`` are
adapters that collapse blocks into row tuples — what pipeline breakers
(a sort buffering its input, a hash join building its table) and the
root drain pull. Row-native operators yield zero-copy
:class:`~repro.expr.vector.RowBlock` wrappers, so their consumers
materialize for free.

Expression work is engine-switched inside ``_blocks``: in ``vector``
mode predicates, projections, join probes and aggregate arguments run
column-at-a-time over the blocks (kernels from :mod:`repro.expr.vector`);
in ``interpreted`` mode every record goes through the tree-walking
interpreter (:mod:`repro.expr.evaluate`), which is kept as the semantic
reference. Both engines must produce identical rows in identical order,
and raise identical errors.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import operator as operator_module
import time
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import instrument
from repro.core.ordering import OrderSpec, SortDirection
from repro.errors import ExecutionError
from repro.executor.context import ExecutionContext
from repro.expr.bindings import active_value
from repro.expr.evaluate import evaluate, evaluate_predicate
from repro.expr.nodes import ColumnRef, Expression, Parameter
from repro.expr.schema import RowSchema
from repro.expr.vector import (
    RowBlock,
    Selectivity,
    VectorBatch,
    compile_vector_filter,
    vector_projection_kernel,
)
from repro.sqltypes import group_key_column, is_null, sort_key_column
from repro.storage.buffer import PageId
from repro.storage.database import encode_index_key

Row = Tuple[Any, ...]
Batch = List[Row]
# A decorated sort entry: (key, input sequence number, row).
Entry = Tuple[Tuple[Any, ...], int, Row]


def count_interpreted(rows: int = 1) -> None:
    """Tally tree-walking expression evaluations (one per record per
    expression). The execution counter-budget test pins this to zero in
    vector mode, so a kernel silently falling back to the interpreter
    fails loudly."""
    instrument.count("exec.interpreted.evals", rows)


def chunked(rows: Iterable[Row], size: int) -> Iterator[Batch]:
    """Group an iterable of rows into batches of at most ``size``."""
    batch: Batch = []
    append = batch.append
    for row in rows:
        append(row)
        if len(batch) >= size:
            yield batch
            batch = []
            append = batch.append
    if batch:
        yield batch


def row_blocks(rows: Iterable[Row], size: int) -> Iterator[RowBlock]:
    """Lift a row stream into zero-copy blocks of at most ``size`` rows
    (how the row-at-a-time bodies speak the block protocol)."""
    return map(RowBlock, chunked(rows, size))


def rebatched(
    row_lists: Iterable[List[Row]], size: int
) -> Iterator[RowBlock]:
    """Cut a stream of row lists into blocks of exactly ``size`` rows
    (the last one may be short): heap pages, sorted groups, a buffer.

    Slices of a list are fresh lists, so no block aliases a source list
    and the sources (live heap pages among them) are never mutated.
    """
    pending: List[Row] = []
    for rows in row_lists:
        start = size - len(pending)
        if start > len(rows):  # fits in the open block
            pending.extend(rows)
            continue
        if pending:
            pending.extend(rows[:start])
            yield RowBlock(pending)
        else:
            start = 0
        while len(rows) - start >= size:
            yield RowBlock(rows[start : start + size])
            start += size
        pending = rows[start:]
    if pending:
        yield RowBlock(pending)


class PhysicalOperator:
    """Base class: every operator exposes a schema and a block stream."""

    def __init__(self, schema: RowSchema):
        self.schema = schema

    def blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        """Instrumented block stream — the pull interface.

        This wrapper is the one metrics layer and the universal
        cancellation checkpoint: the context's token (when present) is
        polled before every block is pulled, on every operator in the
        tree, in both engines. An operator only needs its own explicit
        ``token.check()`` when a single pull can do unbounded work
        without pulling a child block (per-row expansion loops — see
        the nested-loop join).
        """
        metrics = context.metrics_for(self)
        produce = self._blocks(context)
        token = context.cancel_token
        perf_counter = time.perf_counter
        while True:
            if token is not None:
                token.check()
            started = perf_counter()
            try:
                block = next(produce)
            except StopIteration:
                metrics.seconds += perf_counter() - started
                return
            metrics.seconds += perf_counter() - started
            metrics.batches += 1
            metrics.rows += block.count
            yield block

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        raise NotImplementedError

    def batches(self, context: ExecutionContext) -> Iterator[Batch]:
        """Row batches: each block collapsed to tuples. Any parent that
        pulls this — a sort buffering its input, a hash join building
        its table, the root drain — is a late-materialization point;
        a selection-free :class:`RowBlock` already is its row list and
        is not counted as one."""
        metrics = context.metrics_for(self)
        for block in self.blocks(context):
            if block.selection is not None or type(block) is not RowBlock:
                metrics.materializations += 1
            rows = block.materialize()
            if rows:
                yield rows

    def rows(self, context: ExecutionContext) -> Iterator[Row]:
        """Row-at-a-time adapter over :meth:`batches`."""
        for batch in self.batches(context):
            yield from batch

    def execute(self, context: ExecutionContext) -> List[Row]:
        """Drain the operator into a list."""
        out: List[Row] = []
        for batch in self.batches(context):
            out.extend(batch)
        return out

    def children(self) -> Sequence["PhysicalOperator"]:
        return ()

    def label(self) -> str:
        return type(self).__name__

    def explain(
        self, indent: int = 0, analyze: Optional[ExecutionContext] = None
    ) -> str:
        """Render the operator tree; with ``analyze`` (an execution
        context the tree ran under) each line carries that run's
        rows/batches/cumulative-time counters."""
        line = " " * indent + self.label()
        if analyze is not None:
            metrics = analyze.metrics.get(self)
            line += (
                f"  [{metrics.render()}]" if metrics is not None
                else "  [not executed]"
            )
        lines = [line]
        for child in self.children():
            lines.append(child.explain(indent + 2, analyze))
        return "\n".join(lines)


class TableScanOp(PhysicalOperator):
    """Sequential scan of a base table under an alias."""

    def __init__(self, table_name: str, alias: str, schema: RowSchema):
        super().__init__(schema)
        self.table_name = table_name
        self.alias = alias

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        heap = context.database.store(self.table_name).heap
        return rebatched(heap.scan_pages(), context.batch_size)

    def label(self) -> str:
        return f"table scan {self.table_name} as {self.alias}"


_NEVER_MATCHES = object()


def _resolve_bound(bound: Optional[Tuple[Any, ...]]) -> Any:
    """Index bound with host variables resolved from the active scope.

    Returns ``None`` for "unbounded", the resolved value tuple, or
    ``_NEVER_MATCHES`` when any bound value is NULL — sargable
    predicates compare the key column against the value, and a
    comparison with NULL is never true.
    """
    if bound is None:
        return None
    resolved = []
    for value in bound:
        if isinstance(value, Parameter):
            value = active_value(value.name)
        if is_null(value):
            return _NEVER_MATCHES
        resolved.append(value)
    return tuple(resolved)


class IndexScanOp(PhysicalOperator):
    """Ordered scan through an index, optionally bounded.

    ``low``/``high`` are tuples of raw values keying a prefix of the
    index columns. Every qualifying entry's heap row is fetched (the
    schema is the full row).

    A block is filled from :meth:`BPlusTree.scan_runs` leaf slices with
    ``fetch_run``, a slice cut at the block boundary so a consumer that
    stops early fetches nothing past its last block. The block's page
    run — descent, leaf steps and heap pages, in the order an
    entry-at-a-time ``scan_range`` + ``fetch`` walk touches them — is
    charged with one ``BufferPool.access_run`` before the block is
    yielded.
    """

    def __init__(
        self,
        table_name: str,
        index_name: str,
        alias: str,
        schema: RowSchema,
        low: Optional[Tuple[Any, ...]] = None,
        high: Optional[Tuple[Any, ...]] = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        descending: bool = False,
        partition: Optional[int] = None,
    ):
        super().__init__(schema)
        self.table_name = table_name
        self.index_name = index_name
        self.alias = alias
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.descending = descending
        # Partitioned tables only: scan a single partition's tree (one
        # input of a merge exchange), charging just that partition's
        # pages.
        self.partition = partition

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        low = _resolve_bound(self.low)
        high = _resolve_bound(self.high)
        if low is _NEVER_MATCHES or high is _NEVER_MATCHES:
            # A bound compared against NULL (e.g. a host variable bound
            # to None): the covered predicate is never true, and it was
            # removed from the residual filters, so the scan itself must
            # return nothing.
            return
        store = context.database.store(self.table_name)
        index, tree = store.indexes[self.index_name]
        if self.partition is not None:
            tree = tree.partition(self.partition)
        elif store.partitioning is not None:
            raise ExecutionError(
                f"index {self.index_name} is partitioned: an index scan "
                "reads one partition's local tree"
            )
        directions = [column.direction for column in index.key]
        low_key = (
            encode_index_key(low, directions[: len(low)])
            if low is not None
            else None
        )
        high_key = (
            encode_index_key(high, directions[: len(high)])
            if high is not None
            else None
        )
        fetch_run = store.heap.fetch_run
        charge = context.database.buffer_pool.access_run
        size = context.batch_size
        # The page run is this generator's local, like the index
        # nested-loop join's: it is empty at every yield.
        run: List[PageId] = []
        batch: Batch = []
        for _keys, rids in tree.scan_runs(
            low_key,
            high_key,
            self.low_inclusive,
            self.high_inclusive,
            self.descending,
            run,
        ):
            start = 0
            # A slice that fills the block is cut there, and the block
            # leaves before the scan is asked for the next leaf.
            while len(rids) - start >= size - len(batch):
                stop = start + size - len(batch)
                batch += fetch_run(rids[start:stop], run)
                charge(run)
                run.clear()
                yield RowBlock(batch)
                batch = []
                start = stop
            batch += fetch_run(rids[start:], run)
        charge(run)
        if batch:
            yield RowBlock(batch)

    def label(self) -> str:
        direction = " (backward)" if self.descending else ""
        bounds = ""
        if self.low is not None or self.high is not None:
            bounds = f" bounds[{self.low}..{self.high}]"
        part = f" [part {self.partition}]" if self.partition is not None else ""
        return (
            f"index scan {self.index_name} on {self.table_name} "
            f"as {self.alias}{direction}{bounds}{part}"
        )


class FilterOp(PhysicalOperator):
    """Applies a predicate to its input.

    ``selectivity`` (optional) estimates a predicate subtree's
    selectivity from the catalog stats. The block engine calls it only
    when it compiles the predicate's kernel (a kernel-memo hit never
    does), to fix the order its AND / OR terms run in.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        predicate: Expression,
        selectivity: Optional[Selectivity] = None,
    ):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate
        self.selectivity = selectivity

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        metrics = context.metrics_for(self)
        if not context.vectorized:
            predicate, schema = self.predicate, self.schema
            for batch in self.child.batches(context):
                metrics.rows_in += len(batch)
                count_interpreted(len(batch))
                kept = [
                    row
                    for row in batch
                    if evaluate_predicate(predicate, schema, row)
                ]
                if kept:
                    yield RowBlock(kept)
            return
        vector_filter = compile_vector_filter(
            self.predicate, self.schema, self.selectivity
        )
        for block in self.child.blocks(context):
            metrics.rows_in += block.count
            selection = vector_filter(block)
            if not selection:
                continue
            if type(block) is RowBlock and 4 * len(selection) < 3 * block.length:
                # Compact a selective row block instead of carrying the
                # selection: the tuples already exist, so this is one
                # reference gather, and every consumer downstream then
                # works dense instead of indirecting through dead rows.
                rows = block.rows
                yield RowBlock([rows[i] for i in selection])
            else:
                yield block.with_selection(selection)

    def label(self) -> str:
        return f"filter [{self.predicate}]"


class ProjectOp(PhysicalOperator):
    """Computes output expressions (including plain column selection)."""

    def __init__(
        self,
        child: PhysicalOperator,
        expressions: Sequence[Expression],
        schema: RowSchema,
    ):
        if len(expressions) != len(schema):
            raise ExecutionError("projection arity mismatch")
        super().__init__(schema)
        self.child = child
        self.expressions = list(expressions)

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _simple_positions(self) -> Optional[List[int]]:
        child_schema = self.child.schema
        positions: List[int] = []
        for expression in self.expressions:
            if (
                isinstance(expression, ColumnRef)
                and expression in child_schema
            ):
                positions.append(child_schema.position(expression))
            else:
                return None
        return positions

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        child_schema = self.child.schema
        if context.vectorized:
            kernel = vector_projection_kernel(self.expressions, child_schema)
            for block in self.child.blocks(context):
                if block.count:
                    yield kernel(block)
            return
        positions = self._simple_positions()
        if positions is not None:
            if len(positions) == 1:
                only = positions[0]
                getter = lambda row: (row[only],)  # noqa: E731
            else:
                getter = operator_module.itemgetter(*positions)
            for batch in self.child.batches(context):
                yield RowBlock([getter(row) for row in batch])
            return
        expressions = self.expressions
        for batch in self.child.batches(context):
            count_interpreted(len(batch) * len(expressions))
            yield RowBlock(
                [
                    tuple(
                        evaluate(expression, child_schema, row)
                        for expression in expressions
                    )
                    for row in batch
                ]
            )

    def label(self) -> str:
        inner = ", ".join(str(column) for column in self.schema.columns)
        return f"project [{inner}]"


def sort_key_plan(
    schema: RowSchema, order: OrderSpec
) -> List[Tuple[int, bool]]:
    """(position, descending) pairs for an order over ``schema``."""
    return [
        (schema.position(key.column), key.direction is SortDirection.DESC)
        for key in order
    ]


def sort_keys(
    block: VectorBatch, plan: Sequence[Tuple[int, bool]]
) -> Tuple[List[Tuple[Any, ...]], List[Sequence[Any]]]:
    """Total-order keys of ``block``'s live rows under ``plan``.

    The ordered key builder of both engines (sorts and the merge
    exchange), column-wise: each key column is gathered over the live
    selection once and keyed by ``sort_key_column`` — exactly
    ``[sort_key(v, descending) for v in column]``, built from the
    column's type census — then the columns are zipped into one tuple
    per row. Returns ``(keys, gathered)`` like :func:`group_markers`.
    """
    live = block.live()
    gathered = [block.gather(position, live) for position, _desc in plan]
    if not gathered:
        return [()] * len(live), gathered
    keyed = [
        sort_key_column(column, descending)
        for column, (_position, descending) in zip(gathered, plan)
    ]
    return list(zip(*keyed)), gathered


def group_markers(
    block: VectorBatch, positions: Sequence[int]
) -> Tuple[Sequence[Any], List[Sequence[Any]]]:
    """Grouping markers of ``block``'s live rows over ``positions``.

    GROUP BY, DISTINCT and the sort's prefix-group boundaries need only
    equality (the paper's §7: equal values adjacent, any column order,
    either direction), so a marker is the row's ``group_key`` values —
    equal exactly when the ``sort_key``s are equal — not an ordered key.
    ``group_key_column`` hands back a gathered column of plain values as
    its own marker column. One key column gives bare markers, several
    give one tuple per row. Returns ``(markers, gathered)``; the raw
    gathered columns ride along for GROUP BY's output values.
    """
    live = block.live()
    gathered = [block.gather(position, live) for position in positions]
    if len(gathered) == 1:
        return group_key_column(gathered[0]), gathered
    if not gathered:
        return [()] * len(live), gathered
    return list(zip(*map(group_key_column, gathered))), gathered


class SortOp(PhysicalOperator):
    """Segmented external sort: full sort, partial sort and Top-N.

    The child delivers rows grouped by ``order.prefix(prefix_length)``
    — the optimizer proved it through the order algebra, possibly via
    FDs/constants rather than a literal column match. With prefix 0
    (a full sort) the whole input is one group and no per-row prefix
    comparison happens. Each group is sorted on the remaining keys and
    streamed out, so memory is bounded by the largest group, not the
    input. A group reaching ``sort_memory_rows`` is cut into sorted
    spill runs — boundaries land exactly at the threshold whatever the
    batch size — charged per run written and re-read, and heap-merged.

    With ``limit`` set (a FETCH FIRST above), each group keeps only its
    ``limit`` smallest rows in a bounded sorted buffer and never spills:
    later rows of a group can never reach the result because whole
    earlier groups precede them. With prefix 0 this is the Top-N sort.

    Byte-identity invariant: keys are computed once per input row into
    decorated ``(key, sequence, row)`` entries, so the sort is stable,
    rows are never compared, and the output equals a full stable sort
    of the input on ``order`` (truncated per group under a limit) — in
    both engines. A single pull can cross many groups without yielding
    a block, so the ``CancelToken`` is polled at every group boundary.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        order: OrderSpec,
        prefix_length: int = 0,
        limit: Optional[int] = None,
    ):
        super().__init__(child.schema)
        if order.is_empty():
            raise ExecutionError("sort needs a non-empty order")
        if not 0 <= prefix_length < len(order):
            raise ExecutionError(
                "sort prefix must be shorter than the order "
                f"(got {prefix_length} of {len(order)} keys)"
            )
        if limit is not None and limit < 1:
            raise ExecutionError("sort limit must be positive")
        self.child = child
        self.order = order
        self.prefix_length = prefix_length
        self.limit = limit

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        groups = self._sorted_groups(context)
        size = context.batch_size
        if self.limit is None:
            return rebatched(groups, size)
        # A limit above stops pulling once it has its rows, so each
        # closed group goes out at once rather than waiting to fill a
        # block: the input is read no further than the groups the limit
        # needs, which is what ``CostModel.sort`` charges.
        return (block for rows in groups for block in rebatched((rows,), size))

    def _sorted_groups(
        self, context: ExecutionContext
    ) -> Iterator[List[Row]]:
        """Row lists in output order, one sorted group after another."""
        metrics = context.metrics_for(self)
        token = context.cancel_token
        plan = sort_key_plan(self.schema, self.order)
        prefix_positions = [
            position for position, _desc in plan[: self.prefix_length]
        ]
        suffix_plan = plan[self.prefix_length :]
        group: List[Entry] = []
        runs: List[List[Entry]] = []
        marker: Any = _NO_GROUP
        sequence = 0
        for batch in self.child.batches(context):
            block = RowBlock(batch)
            keys, _ = sort_keys(block, suffix_plan)
            entries = zip(keys, range(sequence, sequence + len(batch)), batch)
            sequence += len(batch)
            starts: List[int] = []  # where a new prefix group begins
            if prefix_positions:
                markers, _ = group_markers(block, prefix_positions)
                for index, current in enumerate(markers):
                    if current != marker:
                        starts.append(index)
                        marker = current
            edge = 0
            for start in starts:
                group = self._buffer(
                    context, metrics, group, runs,
                    itertools.islice(entries, start - edge),
                )
                if group or runs:
                    yield from self._flush(context, metrics, group, runs)
                    group, runs = [], []
                    if token is not None:
                        token.check()
                edge = start
            group = self._buffer(context, metrics, group, runs, entries)
        metrics.sorted_rows += sequence
        if self.prefix_length:
            context.rows_partial_sorted += sequence
            instrument.count("exec.partial_sorts")
            instrument.count("exec.rows_partial_sorted", sequence)
        else:
            context.rows_sorted += sequence
            instrument.count("exec.sorts")
            instrument.count("exec.rows_sorted", sequence)
        if group or runs:
            yield from self._flush(context, metrics, group, runs)

    def _buffer(
        self,
        context: ExecutionContext,
        metrics,
        group: List[Entry],
        runs: List[List[Entry]],
        entries: Iterable[Entry],
    ) -> List[Entry]:
        """Add ``entries`` to the open group; returns its in-memory part.

        Under a limit the group is a bounded sorted buffer (an entry
        enters only if it beats the largest kept one). Otherwise every
        ``sort_memory_rows`` entries leave as a sorted spill run.
        """
        limit = self.limit
        if limit is not None:
            for entry in entries:
                if len(group) < limit:
                    bisect.insort(group, entry)
                elif entry < group[-1]:
                    bisect.insort(group, entry)
                    group.pop()
            return group
        group.extend(entries)
        memory_rows = max(1, context.sort_memory_rows)
        while len(group) >= memory_rows:
            run, group = group[:memory_rows], group[memory_rows:]
            run.sort()
            runs.append(run)
            metrics.spill_pages += context.charge_spill(memory_rows)
        return group

    def _flush(
        self,
        context: ExecutionContext,
        metrics,
        group: List[Entry],
        runs: List[List[Entry]],
    ) -> Iterator[List[Row]]:
        """One group's rows in order (heap-merging its spill runs)."""
        if self.prefix_length:
            metrics.groups += 1
        group.sort()
        if not runs:
            yield [entry[2] for entry in group]
            return
        if group:
            runs.append(group)
            metrics.spill_pages += context.charge_spill(len(group))
        merged = heapq.merge(*runs)
        size = context.batch_size
        while True:
            rows = [entry[2] for entry in itertools.islice(merged, size)]
            if not rows:
                return
            yield rows

    def label(self) -> str:
        if self.prefix_length:
            text = f"partial sort {self.order} (prefix {self.prefix_length})"
            return text if self.limit is None else f"{text} limit {self.limit}"
        if self.limit is not None:
            return f"top-{self.limit} sort {self.order}"
        return f"sort {self.order}"


# Sentinel marking "no group open yet" wherever markers are compared
# (None is a legal group marker, so it cannot serve).
_NO_GROUP = object()


class LimitOp(PhysicalOperator):
    """Emits at most ``count`` rows (FETCH FIRST n ROWS ONLY)."""

    def __init__(self, child: PhysicalOperator, count: int):
        if count < 1:
            raise ExecutionError("limit must be positive")
        super().__init__(child.schema)
        self.child = child
        self.count = count

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        remaining = self.count
        for block in self.child.blocks(context):
            if block.count > remaining:
                block = block.take(remaining)
            remaining -= block.count
            yield block
            if not remaining:
                return

    def label(self) -> str:
        return f"limit {self.count}"


class ConcatOp(PhysicalOperator):
    """Appends its children's streams (UNION ALL).

    Children must share arity; the output schema is supplied by the
    planner (synthetic union column names).
    """

    def __init__(self, children: Sequence[PhysicalOperator], schema: RowSchema):
        if len(children) < 2:
            raise ExecutionError("concat needs at least two inputs")
        for child in children:
            if len(child.schema) != len(schema):
                raise ExecutionError("concat arity mismatch")
        super().__init__(schema)
        self._children = list(children)

    def children(self) -> Sequence[PhysicalOperator]:
        return tuple(self._children)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        for child in self._children:
            yield from child.blocks(context)

    def label(self) -> str:
        return f"concat ({len(self._children)} branches)"


class MaterializeOp(PhysicalOperator):
    """Buffers its input for repeated iteration (NLJ inner reuse)."""

    def __init__(self, child: PhysicalOperator):
        super().__init__(child.schema)
        self.child = child
        self._buffer: Optional[List[Row]] = None

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        if self._buffer is None:
            self._buffer = self.child.execute(context)
        yield from rebatched([self._buffer], context.batch_size)

    def label(self) -> str:
        return "materialize"
