"""Exchange operators: partition-parallel execution with bounded workers.

Three operators move rows between the partitioned and sequential worlds:

* :class:`PartitionScanOp` — sequential scan over a *subset* of a
  partitioned table's partitions (partition pruning, or a single
  partition as the leaf of a parallel subtree);
* :class:`GatherExchangeOp` — runs its per-partition children on worker
  threads and concatenates their outputs in partition order (the
  deterministic union-all; order across partitions is not claimed);
* :class:`MergeExchangeOp` — same worker machinery, but k-way-merges
  per-partition streams that each deliver the target order, producing
  the global order without a sort. The merge is stable: entries are
  decorated ``(key, partition, sequence, row)`` so equal keys preserve
  partition-then-arrival order and rows are never compared.

The hash repartition exchange is realized as ``count`` instances of
:class:`PartitionSplitOp` sharing one child: the child executes once,
its rows are split into hash buckets with the *same* stable hash the
storage layer routes with, and each split instance serves one bucket to
its consumer.

Concurrency model: each partition gets a worker thread (named
``repro-exch-*`` — the thread-leak fixtures key on the prefix) with its
own :meth:`ExecutionContext.worker_clone`, pushing batches into a
bounded queue. A shared semaphore caps how many workers *pull* at once,
bounding CPU without starving any queue (the blocking ``put`` happens
outside the semaphore). Every worker has its own
:class:`~repro.executor.context.CancelToken` (same deadline as the
parent), so deadlines propagate, individual workers can be
fault-injected, and consumer-side teardown cancels whatever is still
running, drains the queues, and joins every thread — no stranded
workers on success, error, cancellation, or an abandoned generator.
Worker counter slices (metrics, spill/sort/hash counters) merge into
the parent context exactly once, at the gather point.
"""

from __future__ import annotations

import heapq
import queue
import threading
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.catalog.partition import _stable_hash
from repro.core.ordering import OrderSpec
from repro.errors import ExecutionError
from repro.executor.context import ExecutionContext
from repro.executor.operators import (
    Batch,
    PhysicalOperator,
    Row,
    _batch_keys,
    sliced_blocks,
)
from repro.expr.schema import RowSchema
from repro.expr.vector import RowBlock, VectorBatch

# Batches buffered per partition before its producer blocks.
_QUEUE_DEPTH = 8
# Workers allowed to pull from their children simultaneously.
_POOL_SLOTS = 4
# Queue poll interval while waiting on a producer (keeps the consumer
# responsive to its own cancel token even when producers stall).
_POLL_SECONDS = 0.05

_END = object()


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
        size = context.batch_size
        batch: Batch = []
        for partition in self.partitions:
            for page in heap.scan_pages_partition(partition):
                batch.extend(page)
                while len(batch) >= size:
                    yield RowBlock(batch[:size])
                    batch = batch[size:]
        if batch:
            yield RowBlock(batch)

    def label(self) -> str:
        parts = ",".join(str(p) for p in self.partitions)
        return (
            f"partition scan {self.table_name} as {self.alias} "
            f"[parts {parts}]"
        )


class _PartitionWorker:
    """One partition's producer thread + queue + cloned context."""

    def __init__(
        self,
        child: PhysicalOperator,
        parent: ExecutionContext,
        name: str,
        slots: threading.Semaphore,
    ):
        self.child = child
        self.context = parent.worker_clone()
        self.queue: "queue.Queue" = queue.Queue(maxsize=_QUEUE_DEPTH)
        self.error: Optional[BaseException] = None
        self.slots = slots
        self.thread = threading.Thread(
            target=self._run, name=name, daemon=True
        )

    def start(self) -> None:
        self.thread.start()

    def _run(self) -> None:
        try:
            produce = self.child.batches(self.context)
            while True:
                # Hold a pool slot only while *computing* a batch; the
                # potentially blocking hand-off happens outside it, so a
                # full queue never parks a slot other partitions need.
                self.slots.acquire()
                try:
                    batch = next(produce, _END)
                finally:
                    self.slots.release()
                if batch is _END:
                    break
                self.queue.put(batch)
        except BaseException as exc:  # noqa: BLE001 - re-raised at gather
            self.error = exc
        finally:
            self.queue.put(_END)


class _ExchangeBase(PhysicalOperator):
    """Shared worker-pool scaffolding for gather and merge exchanges."""

    def __init__(
        self, children: Sequence[PhysicalOperator], schema: RowSchema
    ):
        super().__init__(schema)
        if len(children) < 2:
            raise ExecutionError("an exchange needs >= 2 input streams")
        self._children = tuple(children)
        for child in self._children:
            if tuple(child.schema.columns) != tuple(schema.columns):
                raise ExecutionError("exchange inputs must share a schema")

    def children(self) -> Sequence[PhysicalOperator]:
        return self._children

    def _start_workers(
        self, context: ExecutionContext
    ) -> List[_PartitionWorker]:
        slots = threading.BoundedSemaphore(_POOL_SLOTS)
        workers = [
            _PartitionWorker(
                child,
                context,
                f"repro-exch-{id(self):x}-{index}",
                slots,
            )
            for index, child in enumerate(self._children)
        ]
        for worker in workers:
            worker.start()
        return workers

    @staticmethod
    def _drain(
        worker: _PartitionWorker, context: ExecutionContext
    ) -> Iterator[Batch]:
        """Yield one worker's batches, staying responsive to the
        consumer's own token while the producer is quiet."""
        token = context.cancel_token
        while True:
            try:
                item = worker.queue.get(timeout=_POLL_SECONDS)
            except queue.Empty:
                if token is not None:
                    token.check()
                continue
            if item is _END:
                return
            yield item

    @staticmethod
    def _finish(
        worker: _PartitionWorker, context: ExecutionContext
    ) -> None:
        """Join a drained worker, fold its counters in, re-raise its
        typed error (QueryCancelled/QueryTimeout/ExecutionError/...)."""
        worker.thread.join()
        context.absorb(worker.context)
        worker.context = None  # absorbed exactly once
        if worker.error is not None:
            raise worker.error

    @staticmethod
    def _shutdown(
        workers: List[_PartitionWorker], context: ExecutionContext
    ) -> None:
        """Teardown on every exit path: cancel, drain, join, absorb."""
        for worker in workers:
            if worker.context is not None:
                token = worker.context.cancel_token
                if token is not None:
                    token.cancel("exchange shutdown")
        for worker in workers:
            while worker.thread.is_alive():
                try:
                    worker.queue.get_nowait()
                except queue.Empty:
                    worker.thread.join(timeout=0.01)
            worker.thread.join()
            if worker.context is not None:
                context.absorb(worker.context)
                worker.context = None


class GatherExchangeOp(_ExchangeBase):
    """Parallel union of partition streams, output in partition order.

    All partitions produce concurrently (into their bounded queues);
    the consumer drains queue 0 to exhaustion, then queue 1, and so on,
    so the output is the deterministic concatenation — identical to the
    sequential engines' row order — while the work overlaps.
    """

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        workers = self._start_workers(context)
        try:
            for worker in workers:
                yield from map(RowBlock, self._drain(worker, context))
                self._finish(worker, context)
        finally:
            self._shutdown(workers, context)

    def label(self) -> str:
        return f"gather exchange ({len(self._children)} streams)"


class MergeExchangeOp(_ExchangeBase):
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
        super().__init__(children, schema)
        if order.is_empty():
            raise ExecutionError("merge exchange needs a non-empty order")
        self.order = order

    def _entries(
        self,
        worker: _PartitionWorker,
        partition: int,
        keys_of,
        context: ExecutionContext,
    ) -> Iterator[Tuple]:
        sequence = 0
        for batch in self._drain(worker, context):
            keys = keys_of(batch)
            for key, row in zip(keys, batch):
                yield (key, partition, sequence, row)
                sequence += 1
        self._finish(worker, context)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        workers = self._start_workers(context)
        try:
            keys_of = _batch_keys(context, self.schema, self.order)
            streams = [
                self._entries(worker, partition, keys_of, context)
                for partition, worker in enumerate(workers)
            ]
            size = context.batch_size
            batch: Batch = []
            append = batch.append
            for entry in heapq.merge(*streams):
                append(entry[3])
                if len(batch) >= size:
                    yield RowBlock(batch)
                    batch = []
                    append = batch.append
            if batch:
                yield RowBlock(batch)
        finally:
            self._shutdown(workers, context)

    def label(self) -> str:
        return (
            f"merge exchange {self.order} "
            f"({len(self._children)} streams)"
        )


class _SplitSource:
    """The shared half of a hash repartition exchange.

    Executes the child once (first bucket pulled wins, under a lock)
    and splits its rows into ``count`` hash buckets using the storage
    layer's stable hash — a repartitioned stream therefore co-locates
    with a hash-partitioned table over equal column values.
    """

    def __init__(
        self,
        child: PhysicalOperator,
        positions: Sequence[int],
        count: int,
    ):
        self.child = child
        self.positions = tuple(positions)
        self.count = count
        self._buckets: Optional[List[List[Row]]] = None
        self._lock = threading.Lock()

    def bucket(self, context: ExecutionContext, index: int) -> List[Row]:
        with self._lock:
            if self._buckets is None:
                buckets: List[List[Row]] = [[] for _ in range(self.count)]
                positions = self.positions
                count = self.count
                for batch in self.child.batches(context):
                    for row in batch:
                        values = tuple(
                            row[position] for position in positions
                        )
                        buckets[_stable_hash(values) % count].append(row)
                self._buckets = buckets
            return self._buckets[index]


class PartitionSplitOp(PhysicalOperator):
    """One output bucket of a hash repartition exchange.

    ``count`` sibling instances share one :class:`_SplitSource`; the
    builder (``repro.executor.build``) guarantees the sharing by caching
    on the plan node's shared child.
    """

    def __init__(
        self, source: _SplitSource, index: int, schema: RowSchema
    ):
        super().__init__(schema)
        self.source = source
        self.index = index

    def children(self) -> Sequence[PhysicalOperator]:
        return (self.source.child,)

    def _blocks(self, context: ExecutionContext) -> Iterator[VectorBatch]:
        return sliced_blocks(
            self.source.bucket(context, self.index), context.batch_size
        )

    def label(self) -> str:
        return f"partition split #{self.index}/{self.source.count}"
