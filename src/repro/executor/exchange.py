"""Partitioned-table operators: pruned scans and the merge exchange.

Two operators sit between a partitioned table and the classic,
single-stream operators above it:

* :class:`PartitionScanOp` — sequential scan over a *subset* of a
  partitioned table's partitions (partition pruning);
* :class:`MergeExchangeOp` — k-way-merges per-partition streams that
  each deliver the target order, producing the global order without a
  sort. The merge is stable: entries are decorated
  ``(key, partition, sequence, row)`` so equal keys preserve
  partition-then-arrival order and rows are never compared.

One statement runs on one thread: the merge pulls its children's
``batches(context)`` inline on the consumer's own
:class:`~repro.executor.context.ExecutionContext`, so every child
polls the one shared cancel token at the universal ``blocks()``
checkpoint, operator metrics land in the one context, and page
accesses reach the buffer pool in an order that is a function of the
plan — the simulated I/O of a plan is reproducible run to run.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence, Tuple

from repro.core.ordering import OrderSpec
from repro.errors import ExecutionError
from repro.executor.context import ExecutionContext
from repro.executor.operators import (
    PhysicalOperator,
    rebatched,
    row_blocks,
    sort_key_plan,
    sort_keys,
)
from repro.expr.schema import RowSchema
from repro.expr.vector import RowBlock, VectorBatch


class PartitionScanOp(PhysicalOperator):
    """Sequential scan of selected partitions of a partitioned table.

    Charges exactly the pages of the partitions it touches — pruned
    partitions cost nothing, which is the point.
    """

    def __init__(
        self,
        table_name: str,
        alias: str,
        schema: RowSchema,
        partitions: Sequence[int],
    ):
        super().__init__(schema)
        self.table_name = table_name
        self.alias = alias
        self.partitions = tuple(partitions)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        heap = context.database.store(self.table_name).heap
        pages = (
            page
            for partition in self.partitions
            for page in heap.scan_pages_partition(partition)
        )
        return rebatched(pages, context.batch_size)

    def label(self) -> str:
        parts = ",".join(str(p) for p in self.partitions)
        return (
            f"partition scan {self.table_name} as {self.alias} "
            f"[parts {parts}]"
        )


class MergeExchangeOp(PhysicalOperator):
    """Order-preserving k-way merge of partition streams.

    Every input must deliver ``order`` already; the merge only
    interleaves. Stability: heap entries are
    ``(key, partition, sequence, row)`` — unique ``(partition,
    sequence)`` pairs mean equal keys resolve to partition-then-arrival
    order and row payloads are never compared (they may not be
    comparable).
    """

    def __init__(
        self,
        children: Sequence[PhysicalOperator],
        schema: RowSchema,
        order: OrderSpec,
    ):
        super().__init__(schema)
        if len(children) < 2:
            raise ExecutionError("an exchange needs >= 2 input streams")
        if order.is_empty():
            raise ExecutionError("merge exchange needs a non-empty order")
        self._children = tuple(children)
        for child in self._children:
            if tuple(child.schema.columns) != tuple(schema.columns):
                raise ExecutionError("exchange inputs must share a schema")
        self.order = order

    def children(self) -> Sequence[PhysicalOperator]:
        return self._children

    @staticmethod
    def _entries(
        child: PhysicalOperator,
        partition: int,
        plan,
        context: ExecutionContext,
    ) -> Iterator[Tuple]:
        sequence = 0
        for batch in child.batches(context):
            keys, _ = sort_keys(RowBlock(batch), plan)
            for key, row in zip(keys, batch):
                yield (key, partition, sequence, row)
                sequence += 1

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        plan = sort_key_plan(self.schema, self.order)
        streams = [
            self._entries(child, partition, plan, context)
            for partition, child in enumerate(self._children)
        ]
        merged = heapq.merge(*streams)
        return row_blocks((entry[3] for entry in merged), context.batch_size)

    def label(self) -> str:
        return (
            f"merge exchange {self.order} "
            f"({len(self._children)} streams)"
        )
