"""Join operators: nested-loop (naive and index), merge, and hash joins.

The star of the paper's Section 8 is the *ordered* nested-loop index
join: when the outer stream arrives sorted on the join column, the index
probes walk the inner B+-tree monotonically, so page accesses register
as buffer hits / sequential misses rather than random misses — the
executor does not special-case this, it simply falls out of the access
pattern meeting the buffer pool.

All joins speak the block protocol (see :mod:`repro.executor.operators`).
The hash and index nested-loop joins have a block body for ``vector``
mode — probe keys gathered from the outer block's columns, matches
emitted as deferred :class:`~repro.expr.vector.JoinBlock` pairs — and
every join has a row-at-a-time ``_joined`` body, the ``interpreted``
reference, whose rows are lifted into ``RowBlock``s. Hash and probe
keys are built column-wise in both engines: hash keys are ``group_key``
markers (equal exactly when the values' ``sort_key``s are, so a float
meets the equal Decimal), probe keys the ``encode_index_key`` tuples
that ``storage.database.encode_probe_keys`` builds from each column's
type census, merge keys the ``sort_keys`` tuples of the sorts; NULL
never matches. The row bodies filter each outer row's candidate pairs
with one residual helper, a block filter in ``vector`` mode and the
interpreter in ``interpreted`` mode; left-outer padding is decided per
outer row. ``exec.index_probe.probes`` counts the keys the index
nested-loop join probes.

The index nested-loop block body makes one storage call per outer
block: the cursor's ``probe_block`` probes every key and fetches the
matching rows, appending each key's pages (descent, leaf-chain steps,
then the heap page of every fetched row) to the block's page run, and
one ``BufferPool.access_run`` charges the run — in the order, and with
the hit / miss outcome, of the row body's ``probe`` + ``fetch`` calls —
before the ``JoinBlock`` is yielded.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Any, Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.instrument import count
from repro.errors import ExecutionError
from repro.executor.context import ExecutionContext
from repro.executor.operators import (
    Batch,
    PhysicalOperator,
    Row,
    count_interpreted,
    row_blocks,
    sort_keys,
)
from repro.expr.evaluate import evaluate_predicate
from repro.expr.nodes import ColumnRef, Expression
from repro.expr.schema import RowSchema
from repro.expr.vector import (
    JoinBlock,
    RowBlock,
    VectorBatch,
    compile_vector_filter,
)
from repro.sqltypes import SqlNull, group_key_column, is_null
from repro.storage.buffer import PageId
from repro.storage.database import encode_probe_keys

KeyList = List[Optional[Tuple[Any, ...]]]


def residual_matcher(
    residual: Optional[Expression],
    schema: RowSchema,
    context: ExecutionContext,
) -> Callable[[List[Row]], List[Row]]:
    """Engine-switched residual over one outer row's candidate joined
    rows: ``matcher(candidates) -> matches``."""
    if residual is None:
        return lambda rows: rows
    if context.vectorized:
        vector_filter = compile_vector_filter(residual, schema)

        def vector(rows: List[Row]) -> List[Row]:
            return [rows[i] for i in vector_filter(RowBlock(rows))]

        return vector

    def interpreted(rows: List[Row]) -> List[Row]:
        count_interpreted(len(rows))
        return [
            row for row in rows if evaluate_predicate(residual, schema, row)
        ]

    return interpreted


def _key_columns(batch: Batch, positions: Sequence[int]) -> List[List[Any]]:
    """The key columns of a row batch."""
    return [[row[position] for row in batch] for position in positions]


def _probe_keys(
    columns: Sequence[Sequence[Any]], directions: Sequence[Any]
) -> List[Any]:
    """Index-probe keys of gathered probe columns (``None`` where any
    value is NULL, never probed); ``exec.index_probe.probes`` counts
    the keys that will be probed."""
    keys = encode_probe_keys(columns, directions)
    count("exec.index_probe.probes", len(keys) - keys.count(None))
    return keys


def _padded(
    live: Sequence[int],
    owners: List[int],
    rows: List[Row],
    padding: Row,
) -> Tuple[List[int], List[Row]]:
    """Left-outer pairs of one block: each live outer row with its
    matches (``owners`` holds each match's position in ``live``), or
    with one NULL-padded inner row when it has none."""
    out_index: List[int] = []
    inner_rows: List[Row] = []
    start = 0
    for position, index in enumerate(live):
        stop = bisect_right(owners, position, start)
        if stop == start:
            out_index.append(index)
            inner_rows.append(padding)
        else:
            out_index += [index] * (stop - start)
            inner_rows += rows[start:stop]
        start = stop
    return out_index, inner_rows


def _hash_keys(columns: Sequence[Sequence[Any]]) -> Sequence[Any]:
    """Hash-join keys from gathered key columns: ``group_key`` markers —
    equal exactly when the ``sort_key``s are, so a DOUBLE 0.1 meets a
    DECIMAL 0.10 — and None where any column is NULL (NULL never
    matches). One key column is its own key list, a plain-typed one
    without any per-value work (``group_key_column``); several give a
    tuple per row, with NULL rows found by type census."""
    markers = [group_key_column(column) for column in columns]
    if len(markers) == 1:
        return markers[0]
    keys: List[Any] = list(zip(*markers))
    for column in markers:
        if type(None) in set(map(type, column)):
            for index, value in enumerate(column):
                if value is None:
                    keys[index] = None
    return keys


def _merge_keys(batch: Batch, plan: Sequence[Tuple[int, bool]]) -> KeyList:
    """Merge-join keys of a row batch: the sorts' ``sort_keys`` tuples,
    None where any key column is NULL (found by type census)."""
    keys, gathered = sort_keys(RowBlock(batch), plan)
    for column in gathered:
        kinds = set(map(type, column))
        if type(None) in kinds or SqlNull in kinds:
            for index, value in enumerate(column):
                if is_null(value):
                    keys[index] = None
    return keys


class _BinaryJoin(PhysicalOperator):
    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        residual: Optional[Expression],
    ):
        super().__init__(outer.schema.concat(inner.schema))
        self.outer = outer
        self.inner = inner
        self.residual = residual

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.outer, self.inner)


class NestedLoopJoinOp(_BinaryJoin):
    """Tuple nested loops with a materialized inner.

    With ``left_outer`` the predicate acts as the ON condition: outer
    rows without a qualifying inner row are emitted once, padded with
    NULLs on the inner side.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        residual: Optional[Expression],
        left_outer: bool = False,
    ):
        super().__init__(outer, inner, residual)
        self.left_outer = left_outer

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        return row_blocks(self._joined(context), context.batch_size)

    def _joined(self, context: ExecutionContext) -> Iterator[Row]:
        matcher = residual_matcher(self.residual, self.schema, context)
        inner_rows = self.inner.execute(context)
        padding = (None,) * len(self.inner.schema)
        left_outer = self.left_outer
        token = context.cancel_token
        for batch in self.outer.batches(context):
            for outer_row in batch:
                # Each outer row walks the whole materialized inner: a
                # selective residual can burn seconds between output
                # batches, so this loop checkpoints per outer row.
                if token is not None:
                    token.check()
                matches = matcher([outer_row + inner for inner in inner_rows])
                yield from matches
                if left_outer and not matches:
                    yield outer_row + padding

    def label(self) -> str:
        condition = f" [{self.residual}]" if self.residual is not None else ""
        kind = "nested-loop left outer join" if self.left_outer else "nested-loop join"
        return f"{kind}{condition}"


class NestedLoopIndexJoinOp(PhysicalOperator):
    """Nested loops probing an inner index per outer row.

    ``probe_columns`` are outer columns whose values key the inner index
    (a prefix of its key). ``ordered`` is informational — set by the
    planner when the outer stream is sorted on the probe columns (the
    paper's ordered nested-loop join); the physical benefit emerges from
    the buffer pool either way.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        table_name: str,
        index_name: str,
        alias: str,
        inner_schema: RowSchema,
        probe_columns: Sequence[ColumnRef],
        residual: Optional[Expression] = None,
        ordered: bool = False,
        left_outer: bool = False,
    ):
        super().__init__(outer.schema.concat(inner_schema))
        self.outer = outer
        self.table_name = table_name
        self.index_name = index_name
        self.alias = alias
        self.inner_schema = inner_schema
        self.probe_columns = list(probe_columns)
        self.residual = residual
        self.ordered = ordered
        self.left_outer = left_outer

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.outer,)

    def _probe_setup(self, context: ExecutionContext):
        store = context.database.store(self.table_name)
        index, tree = store.indexes[self.index_name]
        directions = [
            column.direction
            for column in index.key[: len(self.probe_columns)]
        ]
        positions = [
            self.outer.schema.position(column)
            for column in self.probe_columns
        ]
        return store, tree, directions, positions

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        if not context.vectorized or (
            self.left_outer and self.residual is not None
        ):
            # Left-outer match bookkeeping interacts with the residual
            # row by row, so that shape runs the row join in both
            # engines.
            yield from row_blocks(self._joined(context), context.batch_size)
            return
        store, tree, directions, positions = self._probe_setup(context)
        # The cursor is this generator's local: what it remembers of the
        # shared tree dies with the pull.
        probe_block = tree.probe_cursor().probe_block
        heap = store.heap
        charge = context.database.buffer_pool.access_run
        residual_filter = (
            compile_vector_filter(self.residual, self.schema)
            if self.residual is not None
            else None
        )
        padding = (None,) * len(self.inner_schema)
        left_outer = self.left_outer
        outer_width = len(self.outer.schema)
        metrics = context.metrics_for(self)
        for block in self.outer.blocks(context):
            metrics.rows_in += block.count
            live = block.live()
            keys = _probe_keys(
                [block.gather(p, live) for p in positions], directions
            )
            # Probe i's index pages, then its heap pages, then probe
            # i+1: the order the row body charges them in.
            run: List[PageId] = []
            owners, inner_rows = probe_block(keys, heap, run)
            charge(run)
            if left_outer:
                out_index, inner_rows = _padded(
                    live, owners, inner_rows, padding
                )
            elif type(live) is range:
                out_index = owners
            else:
                out_index = [live[owner] for owner in owners]
            if not out_index:
                continue
            joined = JoinBlock(block, outer_width, out_index, inner_rows)
            if residual_filter is not None:
                selection = residual_filter(joined)
                if not selection:
                    continue
                joined = joined.with_selection(selection)
            yield joined

    def _joined(self, context: ExecutionContext) -> Iterator[Row]:
        store, tree, directions, positions = self._probe_setup(context)
        probe, fetch = tree.probe, store.heap.fetch
        matcher = residual_matcher(self.residual, self.schema, context)
        padding = (None,) * len(self.inner_schema)
        left_outer = self.left_outer
        for batch in self.outer.batches(context):
            keys = _probe_keys(_key_columns(batch, positions), directions)
            for outer_row, key in zip(batch, keys):
                matches = (
                    []
                    if key is None
                    else matcher([outer_row + fetch(r) for r in probe(key)])
                )
                yield from matches
                if left_outer and not matches:
                    yield outer_row + padding

    def label(self) -> str:
        kind = "ordered nested-loop join" if self.ordered else "nested-loop join"
        if self.left_outer:
            kind += " (left outer)"
        probes = ", ".join(str(column) for column in self.probe_columns)
        return (
            f"{kind} (index {self.index_name} on {self.table_name} "
            f"as {self.alias}, probe [{probes}])"
        )


def _keyed_rows(
    operator: PhysicalOperator,
    keys: Sequence[ColumnRef],
    context: ExecutionContext,
) -> Iterator[Tuple[Optional[Tuple[Any, ...]], Row]]:
    """Flatten an operator's batches into (merge key, row) pairs,
    computing keys one batch at a time."""
    plan = [(operator.schema.position(column), False) for column in keys]
    for batch in operator.batches(context):
        yield from zip(_merge_keys(batch, plan), batch)


class MergeJoinOp(_BinaryJoin):
    """Sort-merge equi-join; inputs must arrive ordered on the join keys.

    Handles duplicate keys on both sides by buffering the inner group.
    Sort keys are computed once per row per side (batch kernels), never
    re-derived during group comparisons.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        outer_keys: Sequence[ColumnRef],
        inner_keys: Sequence[ColumnRef],
        residual: Optional[Expression] = None,
    ):
        super().__init__(outer, inner, residual)
        if len(outer_keys) != len(inner_keys) or not outer_keys:
            raise ExecutionError("merge join needs matching key lists")
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        return row_blocks(self._joined(context), context.batch_size)

    def _joined(self, context: ExecutionContext) -> Iterator[Row]:
        matcher = residual_matcher(self.residual, self.schema, context)
        outer_iter = _keyed_rows(self.outer, self.outer_keys, context)
        inner_iter = _keyed_rows(self.inner, self.inner_keys, context)
        outer_entry = next(outer_iter, None)
        inner_entry = next(inner_iter, None)
        group_key: Optional[Tuple[Any, ...]] = None
        group_rows: List[Row] = []
        while outer_entry is not None:
            key, outer_row = outer_entry
            if key is None:
                outer_entry = next(outer_iter, None)
                continue
            if group_key is None or key != group_key:
                # Advance the inner side to this key.
                while inner_entry is not None:
                    ikey = inner_entry[0]
                    if ikey is None or ikey < key:
                        inner_entry = next(inner_iter, None)
                        continue
                    break
                group_key, group_rows = key, []
                while inner_entry is not None:
                    if inner_entry[0] == key:
                        group_rows.append(inner_entry[1])
                        inner_entry = next(inner_iter, None)
                        continue
                    break
            yield from matcher([outer_row + inner for inner in group_rows])
            outer_entry = next(outer_iter, None)

    def label(self) -> str:
        pairs = ", ".join(
            f"{outer} = {inner}"
            for outer, inner in zip(self.outer_keys, self.inner_keys)
        )
        return f"merge-join [{pairs}]"


class HashJoinOp(_BinaryJoin):
    """Classic hash equi-join: build on the inner, probe with the outer.

    In vector mode the probe side streams :class:`VectorBatch` blocks:
    probe keys gather straight from the outer key columns and matches
    come out as :class:`JoinBlock` pairs — the wide concatenated tuple
    is never built unless a parent materializes. A residual predicate
    runs as a vector filter over the join block (column leaves get the
    fast paths); the left-outer + residual combination runs the
    row-at-a-time join, where match bookkeeping lives.
    """

    def __init__(
        self,
        outer: PhysicalOperator,
        inner: PhysicalOperator,
        outer_keys: Sequence[ColumnRef],
        inner_keys: Sequence[ColumnRef],
        residual: Optional[Expression] = None,
        left_outer: bool = False,
    ):
        super().__init__(outer, inner, residual)
        if len(outer_keys) != len(inner_keys) or not outer_keys:
            raise ExecutionError("hash join needs matching key lists")
        self.outer_keys = list(outer_keys)
        self.inner_keys = list(inner_keys)
        self.left_outer = left_outer

    def _build_table(self, context: ExecutionContext) -> dict:
        """Materialize the inner side into the hash table (both engines)."""
        inner_positions = [
            self.inner.schema.position(column) for column in self.inner_keys
        ]
        table: dict = {}
        setdefault = table.setdefault
        build_count = 0
        token = context.cancel_token
        for batch in self.inner.batches(context):
            # Build side is a pipeline breaker: checkpoint per build
            # batch so a huge inner stops before the probe phase.
            if token is not None:
                token.check()
            keys = _hash_keys(_key_columns(batch, inner_positions))
            for values, inner_row in zip(keys, batch):
                if values is None:
                    continue
                setdefault(values, []).append(inner_row)
                build_count += 1
        context.rows_hashed += build_count
        if build_count > context.sort_memory_rows:
            context.charge_spill(build_count)
        return table

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        if not context.vectorized or (
            self.left_outer and self.residual is not None
        ):
            yield from row_blocks(self._joined(context), context.batch_size)
            return
        table = self._build_table(context)
        outer_positions = [
            self.outer.schema.position(column) for column in self.outer_keys
        ]
        outer_width = len(self.outer.schema)
        padding = (None,) * len(self.inner.schema)
        empty: Tuple[Row, ...] = ()
        left_outer = self.left_outer
        get = table.get
        metrics = context.metrics_for(self)
        residual_filter = (
            compile_vector_filter(self.residual, self.schema)
            if self.residual is not None
            else None
        )
        for block in self.outer.blocks(context):
            metrics.rows_in += block.count
            out_index: List[int] = []
            inner_rows: List[Row] = []
            index_append = out_index.append
            inner_append = inner_rows.append
            live = block.live()
            if type(live) is range:
                live = list(live)
            keys = _hash_keys([block.gather(p, live) for p in outer_positions])
            for i, key in zip(live, keys):
                matches = empty if key is None else get(key, empty)
                for inner_row in matches:
                    index_append(i)
                    inner_append(inner_row)
                if left_outer and not matches:
                    index_append(i)
                    inner_append(padding)
            if not out_index:
                continue
            joined = JoinBlock(block, outer_width, out_index, inner_rows)
            if residual_filter is not None:
                selection = residual_filter(joined)
                if not selection:
                    continue
                joined = joined.with_selection(selection)
            yield joined

    def _joined(self, context: ExecutionContext) -> Iterator[Row]:
        outer_positions = [
            self.outer.schema.position(column) for column in self.outer_keys
        ]
        matcher = residual_matcher(self.residual, self.schema, context)
        table = self._build_table(context)
        padding = (None,) * len(self.inner.schema)
        empty: Tuple[Row, ...] = ()
        left_outer = self.left_outer
        get = table.get
        metrics = context.metrics_for(self)
        for batch in self.outer.batches(context):
            metrics.rows_in += len(batch)
            keys = _hash_keys(_key_columns(batch, outer_positions))
            for values, outer_row in zip(keys, batch):
                matches = (
                    []
                    if values is None
                    else matcher([outer_row + r for r in get(values, empty)])
                )
                yield from matches
                if left_outer and not matches:
                    yield outer_row + padding

    def label(self) -> str:
        pairs = ", ".join(
            f"{outer} = {inner}"
            for outer, inner in zip(self.outer_keys, self.inner_keys)
        )
        kind = "hash left outer join" if self.left_outer else "hash join"
        return f"{kind} [{pairs}]"
