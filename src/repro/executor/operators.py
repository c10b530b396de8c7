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
column-at-a-time over the blocks (kernels from :mod:`repro.expr.vector`
and :mod:`repro.expr.compile`); in ``interpreted`` mode every record
goes through the tree-walking interpreter (:mod:`repro.expr.evaluate`),
which is kept as the semantic reference. Both engines must produce
identical rows in identical order.
"""

from __future__ import annotations

import bisect
import heapq
import operator as operator_module
import time
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core import instrument
from repro.core.ordering import OrderSpec, SortDirection
from repro.errors import ExecutionError
from repro.executor.context import ExecutionContext
from repro.expr.compile import ordered_key_kernel
from repro.expr.bindings import active_value
from repro.expr.evaluate import evaluate, evaluate_predicate
from repro.expr.nodes import ColumnRef, Expression, Parameter
from repro.expr.schema import RowSchema
from repro.expr.vector import (
    RowBlock,
    VectorBatch,
    compile_vector_filter,
    vector_projection_kernel,
)
from repro.sqltypes import is_null, sort_key
from repro.storage.database import encode_index_key

Row = Tuple[Any, ...]
Batch = List[Row]


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


def sliced_blocks(rows: Sequence[Row], size: int) -> Iterator[RowBlock]:
    """Blocks over an in-memory row list (cheap slicing).

    A slice of a list is already a fresh list, so each block is
    independent of the source buffer — no second copy needed.
    """
    for start in range(0, len(rows), size):
        yield RowBlock(rows[start : start + size])


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
        store = context.database.store(self.table_name)
        size = context.batch_size
        batch: Batch = []
        for page in store.heap.scan_pages():
            batch.extend(page)
            while len(batch) >= size:
                yield RowBlock(batch[:size])
                batch = batch[size:]
        if batch:
            yield RowBlock(batch)

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
    index columns; ``fetch`` controls whether heap rows are fetched (an
    index-only scan would pass False — we always fetch, since our schema
    is the full row).
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
        fetch = store.heap.fetch
        size = context.batch_size
        batch: Batch = []
        append = batch.append
        for _key, rid in tree.scan_range(
            low=low_key,
            high=high_key,
            low_inclusive=self.low_inclusive,
            high_inclusive=self.high_inclusive,
            descending=self.descending,
        ):
            append(fetch(rid))
            if len(batch) >= size:
                yield RowBlock(batch)
                batch = []
                append = batch.append
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

    ``selectivity_hints`` (optional) maps predicate subtrees to
    estimated selectivities from the catalog stats; the vector engine
    seeds its term ordering with them and refines per batch.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        predicate: Expression,
        selectivity_hints: Optional[dict] = None,
    ):
        super().__init__(child.schema)
        self.child = child
        self.predicate = predicate
        self.selectivity_hints = selectivity_hints

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
            self.predicate, self.schema, self.selectivity_hints
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


def make_sort_key_function(
    schema: RowSchema, order: OrderSpec
) -> Callable[[Row], Tuple[Any, ...]]:
    """Build a sort-key callable for records of ``schema``."""
    plan = sort_key_plan(schema, order)

    def key_of(row: Row) -> Tuple[Any, ...]:
        return tuple(
            sort_key(row[position], descending) for position, descending in plan
        )

    return key_of


def sort_key_plan(
    schema: RowSchema, order: OrderSpec
) -> List[Tuple[int, bool]]:
    """(position, descending) pairs for an order over ``schema``."""
    return [
        (schema.position(key.column), key.direction is SortDirection.DESC)
        for key in order
    ]


def _batch_keys(
    context: ExecutionContext,
    schema: RowSchema,
    order: OrderSpec,
) -> Callable[[Batch], List[Tuple[Any, ...]]]:
    """Batch sort-key computation: one compiled kernel call per batch in
    vector mode, the per-row key function in interpreted mode."""
    plan = sort_key_plan(schema, order)
    if context.vectorized:
        return ordered_key_kernel(plan)
    key_of = make_sort_key_function(schema, order)
    return lambda batch: [key_of(row) for row in batch]


class SortOp(PhysicalOperator):
    """External merge sort on an order specification.

    Inputs within the context's sort memory are sorted in place. Larger
    inputs go through the classic two-phase algorithm — sorted run
    generation followed by a k-way heap merge — with spill I/O charged
    per run written and re-read, mirroring the cost model.

    Sort keys are computed exactly once per input row (decorated
    ``(key, sequence, row)`` entries), so neither the in-memory sort nor
    the k-way merge ever re-derives a key; the sequence number keeps the
    sort stable and guarantees rows themselves are never compared.
    """

    def __init__(self, child: PhysicalOperator, order: OrderSpec):
        super().__init__(child.schema)
        if order.is_empty():
            raise ExecutionError("sort needs a non-empty order")
        self.child = child
        self.order = order

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        metrics = context.metrics_for(self)
        keys_of = _batch_keys(context, self.schema, self.order)
        memory_rows = max(1, context.sort_memory_rows)
        size = context.batch_size
        runs: List[List[Tuple[Any, int, Row]]] = []
        buffered: List[Tuple[Any, int, Row]] = []
        sequence = 0
        for batch in self.child.batches(context):
            keys = keys_of(batch)
            start = 0
            total = len(batch)
            while start < total:
                # Fill the in-memory buffer in slices so run boundaries
                # land exactly at memory_rows regardless of batch size.
                take = min(total - start, memory_rows - len(buffered))
                end = start + take
                buffered.extend(
                    zip(
                        keys[start:end],
                        range(sequence, sequence + take),
                        batch[start:end],
                    )
                )
                sequence += take
                start = end
                if len(buffered) >= memory_rows:
                    buffered.sort()
                    runs.append(buffered)
                    metrics.spill_pages += context.charge_spill(
                        len(buffered)
                    )
                    buffered = []
        context.rows_sorted += sequence
        metrics.sorted_rows += sequence
        instrument.count("exec.sorts")
        instrument.count("exec.rows_sorted", sequence)
        if not runs:
            buffered.sort()
            # Slice the decorated buffer directly — no full-length
            # intermediate row list before chunking.
            for start in range(0, len(buffered), size):
                yield RowBlock(
                    [entry[2] for entry in buffered[start : start + size]]
                )
            return
        if buffered:
            buffered.sort()
            runs.append(buffered)
            metrics.spill_pages += context.charge_spill(len(buffered))
        merged = heapq.merge(*runs)
        yield from row_blocks((row for _key, _seq, row in merged), size)

    def label(self) -> str:
        return f"sort {self.order}"


class PartialSortOp(PhysicalOperator):
    """Segmented sort: input already ordered on a prefix of the target.

    The child's delivered order satisfies ``order.prefix(prefix_length)``
    (the optimizer proved it via the order algebra — possibly through
    FDs/ODs/constants, not just a literal column match), so rows with
    equal prefix sort-keys arrive contiguously. Only one prefix-group is
    buffered at a time; each group is sorted on the suffix keys and
    streamed out, which makes the operator incremental and bounds memory
    by the largest group, not the input.

    The ``CancelToken`` is polled at every group boundary: a single pull
    may consume many input groups without yielding (tiny groups smaller
    than a batch), so the universal ``blocks()`` checkpoint alone is
    not enough. A group exceeding ``sort_memory_rows`` falls back to
    per-group spill runs merged with ``heapq.merge``.

    Byte-identity invariant: because groups arrive in prefix-sorted
    order and the per-group sort is stable on the suffix (decorated
    ``(suffix_key, sequence, row)`` entries), the output is identical to
    a full stable sort of the whole input on ``order`` — in both
    engines and against ``SortOp`` itself.

    With ``limit`` set (a FETCH FIRST above), each group only needs its
    ``limit`` smallest rows — later rows of the group can never be in
    the query result because whole earlier groups precede them.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        order: OrderSpec,
        prefix_length: int,
        limit: Optional[int] = None,
    ):
        super().__init__(child.schema)
        if order.is_empty():
            raise ExecutionError("partial sort needs a non-empty order")
        if not 0 < prefix_length < len(order):
            raise ExecutionError(
                "partial sort prefix must be a non-empty proper prefix "
                f"(got {prefix_length} of {len(order)} keys)"
            )
        if limit is not None and limit < 1:
            raise ExecutionError("partial sort limit must be positive")
        self.child = child
        self.order = order
        self.prefix_length = prefix_length
        self.prefix = order.prefix(prefix_length)
        self.suffix = OrderSpec(list(order)[prefix_length:])
        self.limit = limit

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        return row_blocks(
            self._sorted_rows(context, self._block_entries(context)),
            context.batch_size,
        )

    def _block_entries(
        self, context: ExecutionContext
    ) -> Iterator[Tuple[Tuple[Any, ...], Tuple[Any, ...], Row]]:
        """(prefix key, suffix key, row) per input row: keys gathered
        column-wise over the live selection, rows materialized in the
        same selection order."""
        prefix_plan = sort_key_plan(self.schema, self.prefix)
        suffix_plan = sort_key_plan(self.schema, self.suffix)
        for block in self.child.blocks(context):
            if not block.count:
                continue
            selection = block.live()
            prefix_columns = [
                [
                    sort_key(value, descending)
                    for value in block.gather(position, selection)
                ]
                for position, descending in prefix_plan
            ]
            suffix_columns = [
                [
                    sort_key(value, descending)
                    for value in block.gather(position, selection)
                ]
                for position, descending in suffix_plan
            ]
            rows = block.materialize()
            yield from zip(
                zip(*prefix_columns), zip(*suffix_columns), rows
            )

    def _sorted_rows(
        self,
        context: ExecutionContext,
        entries: Iterator[Tuple[Tuple[Any, ...], Tuple[Any, ...], Row]],
    ) -> Iterator[Row]:
        metrics = context.metrics_for(self)
        token = context.cancel_token
        memory_rows = max(1, context.sort_memory_rows)
        marker: Any = _NO_GROUP
        group: List[Tuple[Tuple[Any, ...], int, Row]] = []
        runs: List[List[Tuple[Tuple[Any, ...], int, Row]]] = []
        sequence = 0
        for prefix_key, suffix_key, row in entries:
            if prefix_key != marker:
                if marker is not _NO_GROUP:
                    yield from self._flush(context, metrics, group, runs)
                    group = []
                    runs = []
                    # Group boundary: one pull can span many groups
                    # without yielding a batch, so poll here too.
                    if token is not None:
                        token.check()
                marker = prefix_key
            group.append((suffix_key, sequence, row))
            sequence += 1
            if len(group) >= memory_rows:
                group.sort()
                runs.append(group)
                metrics.spill_pages += context.charge_spill(len(group))
                group = []
        if marker is not _NO_GROUP:
            yield from self._flush(context, metrics, group, runs)
        context.rows_partial_sorted += sequence
        metrics.sorted_rows += sequence
        instrument.count("exec.partial_sorts")
        instrument.count("exec.rows_partial_sorted", sequence)

    def _flush(
        self,
        context: ExecutionContext,
        metrics,
        group: List[Tuple[Tuple[Any, ...], int, Row]],
        runs: List[List[Tuple[Tuple[Any, ...], int, Row]]],
    ) -> Iterator[Row]:
        """Sort and emit one prefix-group (spill-merging if it overflowed)."""
        metrics.groups += 1
        if runs:
            if group:
                group.sort()
                runs.append(group)
                metrics.spill_pages += context.charge_spill(len(group))
            emitted = 0
            for _key, _seq, row in heapq.merge(*runs):
                yield row
                emitted += 1
                if self.limit is not None and emitted >= self.limit:
                    break
            return
        if self.limit is not None and len(group) > self.limit:
            # Bounded heap: (key, sequence) pairs are unique, so
            # nsmallest is deterministic and equals sorted()[:limit].
            for _key, _seq, row in heapq.nsmallest(self.limit, group):
                yield row
            return
        group.sort()
        for _key, _seq, row in group:
            yield row

    def label(self) -> str:
        text = f"partial sort {self.order} (prefix {self.prefix_length})"
        if self.limit is not None:
            text += f" limit {self.limit}"
        return text


# Sentinel marking "no group open yet" in PartialSortOp (None is a
# legal sort-key, so it cannot serve as the marker).
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


class TopNSortOp(PhysicalOperator):
    """Partial sort: the ``count`` smallest rows under ``order``.

    A bounded buffer replaces the full sort when FETCH FIRST follows an
    unsatisfied ORDER BY — O(n log k) comparisons and no spill, the
    Top-N analogue of the paper's minimal-sort-column economics.
    """

    def __init__(self, child: PhysicalOperator, order: OrderSpec, count: int):
        if order.is_empty():
            raise ExecutionError("top-n sort needs a non-empty order")
        if count < 1:
            raise ExecutionError("top-n count must be positive")
        super().__init__(child.schema)
        self.child = child
        self.order = order
        self.count = count

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        metrics = context.metrics_for(self)
        keys_of = _batch_keys(context, self.schema, self.order)
        count = self.count
        buffer: List[Tuple[Any, int, Row]] = []  # (key, tie, row), ascending
        tie = 0
        for batch in self.child.batches(context):
            keys = keys_of(batch)
            for key, row in zip(keys, batch):
                entry = (key, tie, row)
                tie += 1
                if len(buffer) < count:
                    bisect.insort(buffer, entry)
                elif entry[0] < buffer[-1][0]:
                    bisect.insort(buffer, entry)
                    buffer.pop()
        context.rows_sorted += tie
        metrics.sorted_rows += tie
        instrument.count("exec.sorts")
        instrument.count("exec.rows_sorted", tie)
        size = context.batch_size
        for start in range(0, len(buffer), size):
            yield RowBlock(
                [entry[2] for entry in buffer[start : start + size]]
            )

    def label(self) -> str:
        return f"top-{self.count} sort {self.order}"


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
        yield from sliced_blocks(self._buffer, context.batch_size)

    def label(self) -> str:
        return "materialize"
