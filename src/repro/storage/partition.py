"""Partitioned storage: per-partition heap files and B+-trees.

A partitioned table stores each partition in its own
:class:`~repro.storage.heap.HeapFile` (file id ``heap:{name}#{p}``) and
each index in per-partition :class:`~repro.storage.btree.BPlusTree`
instances (``index:{name}#{p}``). Distinct file ids keep the buffer
pool's sequential-prefetch detection per partition, so the I/O
simulation charges a pruned or per-partition scan exactly the
pages it touches — nothing about the accounting is approximated.

RIDs stay global: a partitioned heap encodes the partition into the
page number (``global_page = partition * _STRIDE + local_page``), so
index entries, key enforcement, and ``fetch`` all keep working on one
address space while every physical access lands on the right
partition's file.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StorageError
from repro.storage.buffer import BufferPool, PageId
from repro.storage.btree import BPlusTree, Key, ProbeCursor
from repro.storage.heap import HeapFile, Rid

# Pages per partition in the global RID space. A partition would need
# ~64M rows at 64 rows/page to overflow; loads stay far below that.
_STRIDE = 1 << 20


class PartitionedHeap:
    """Heap-file facade over one file per partition.

    Mirrors the :class:`HeapFile` surface (``fetch``/``scan``/
    ``scan_pages``/``rids``/``truncate``/counts) so :class:`StoredTable`
    and the executor treat partitioned and plain tables alike, and adds
    the per-partition entry points loading, the exchange operators and
    pruned scans use (``extend_to``, ``scan_partition``,
    ``scan_pages_partition``).
    """

    def __init__(
        self,
        name: str,
        buffer_pool: BufferPool,
        rows_per_page: int,
        partition_count: int,
    ):
        if partition_count < 2:
            raise StorageError("partitioned heap needs >= 2 partitions")
        self.file_id = f"heap:{name}"
        self.rows_per_page = rows_per_page
        self._parts: List[HeapFile] = [
            HeapFile(f"heap:{name}#{part}", buffer_pool, rows_per_page)
            for part in range(partition_count)
        ]

    @property
    def partition_count(self) -> int:
        return len(self._parts)

    @property
    def page_count(self) -> int:
        return sum(part.page_count for part in self._parts)

    @property
    def row_count(self) -> int:
        return sum(part.row_count for part in self._parts)

    def partition(self, index: int) -> HeapFile:
        return self._parts[index]

    def partition_page_count(self, index: int) -> int:
        return self._parts[index].page_count

    def extend_to(
        self, partition: int, rows: Sequence[Tuple[Any, ...]]
    ) -> List[Rid]:
        """Store records in ``partition``, returning their global RIDs."""
        part = self._parts[partition]
        local = part.extend(rows)
        if part.page_count > _STRIDE:
            raise StorageError(
                f"partition {partition} of {self.file_id} overflowed "
                f"{_STRIDE} pages"
            )
        return _global_rids(partition, local)

    def rids(self) -> List[Rid]:
        """Every record's global RID in :meth:`scan_pages` order."""
        rids: List[Rid] = []
        for partition, part in enumerate(self._parts):
            rids += _global_rids(partition, part.rids())
        return rids

    def fetch(self, rid: Rid) -> Tuple[Any, ...]:
        partition, page_no = divmod(rid.page_no, _STRIDE)
        try:
            part = self._parts[partition]
        except IndexError:
            raise StorageError(f"bad {rid} in {self.file_id}") from None
        return part.fetch(Rid(page_no, rid.slot))

    def fetch_run(
        self, rids: Sequence[Rid], run: List[PageId]
    ) -> List[Tuple[Any, ...]]:
        """:meth:`HeapFile.fetch_run` over global RIDs: each record is
        read from, and its page attributed to, its partition's file."""
        rows: List[Tuple[Any, ...]] = []
        for rid in rids:
            partition, page_no = divmod(rid.page_no, _STRIDE)
            try:
                part = self._parts[partition]
            except IndexError:
                raise StorageError(f"bad {rid} in {self.file_id}") from None
            rows.extend(part.fetch_run((Rid(page_no, rid.slot),), run))
        return rows

    def scan(self) -> Iterator[Tuple[Rid, Tuple[Any, ...]]]:
        """Full scan across partitions in partition order (global RIDs)."""
        for partition in range(len(self._parts)):
            yield from self.scan_partition(partition)

    def scan_partition(
        self, partition: int
    ) -> Iterator[Tuple[Rid, Tuple[Any, ...]]]:
        base = partition * _STRIDE
        for rid, row in self._parts[partition].scan():
            yield Rid(base + rid.page_no, rid.slot), row

    def scan_pages(self) -> Iterator[List[Tuple[Any, ...]]]:
        for part in self._parts:
            yield from part.scan_pages()

    def scan_pages_partition(
        self, partition: int
    ) -> Iterator[List[Tuple[Any, ...]]]:
        return self._parts[partition].scan_pages()

    def truncate(self) -> None:
        for part in self._parts:
            part.truncate()


def _global_rids(partition: int, local: List[Rid]) -> List[Rid]:
    """``partition``'s local RIDs in the global RID space."""
    if not partition:
        return local
    base = partition * _STRIDE
    return [Rid(base + page_no, slot) for page_no, slot in local]


def rid_partition(rid: Rid) -> int:
    """The partition a global RID addresses."""
    return rid.page_no // _STRIDE


class PartitionedTree:
    """B+-tree facade over one tree per partition.

    Entries route by the partition already encoded in their RID, so the
    index is automatically co-partitioned with the heap. The trees are
    local indexes: there is no whole-table range scan, only
    per-partition scans (``partition(p)``), which back the
    order-preserving merge-exchange plans.
    """

    def __init__(
        self,
        name: str,
        buffer_pool: BufferPool,
        fanout: int,
        partition_count: int,
    ):
        if partition_count < 2:
            raise StorageError("partitioned index needs >= 2 partitions")
        self.file_id = f"index:{name}"
        self._trees: List[BPlusTree] = [
            BPlusTree(f"index:{name}#{part}", buffer_pool, fanout)
            for part in range(partition_count)
        ]

    @property
    def partition_count(self) -> int:
        return len(self._trees)

    @property
    def entry_count(self) -> int:
        return sum(tree.entry_count for tree in self._trees)

    @property
    def height(self) -> int:
        return max(tree.height for tree in self._trees)

    def partition(self, index: int) -> BPlusTree:
        return self._trees[index]

    def bulk_load(self, entries: Iterable[Tuple[Key, Rid]]) -> None:
        buckets: List[List[Tuple[Key, Rid]]] = [
            [] for _ in self._trees
        ]
        for key, rid in entries:
            buckets[rid_partition(rid)].append((key, rid))
        for tree, bucket in zip(self._trees, buckets):
            tree.bulk_load(bucket)

    def probe(self, key: Key) -> List[Rid]:
        """Point-probe every partition; each probe charges its own
        descent, which is exactly the physical work a partitioned index
        lookup does."""
        out: List[Rid] = []
        for tree in self._trees:
            out.extend(tree.probe(key))
        return out

    def probe_cursor(self) -> "PartitionedProbeCursor":
        """A probe cursor over every partition, for one operator."""
        return PartitionedProbeCursor(
            [tree.probe_cursor() for tree in self._trees]
        )


class PartitionedProbeCursor:
    """One :class:`ProbeCursor` per partition, probed in partition order
    like :meth:`PartitionedTree.probe` — every partition's descent lands
    in the run."""

    def __init__(self, cursors: List[ProbeCursor]):
        self._cursors = cursors

    def probe_block(
        self,
        keys: Sequence[Optional[Key]],
        heap: PartitionedHeap,
        run: List[PageId],
    ) -> Tuple[List[int], List[Tuple[Any, ...]]]:
        """:meth:`ProbeCursor.probe_block` over every partition: per
        key, each partition's index pages in partition order, then the
        heap page of every fetched RID, read from its partition's file."""
        owners: List[int] = []
        rows: List[Tuple[Any, ...]] = []
        parts = [part.page_tables() for part in heap._parts]
        for position, key in enumerate(keys):
            if key is None:
                continue
            rids: List[Rid] = []
            for cursor in self._cursors:
                rids += cursor.probe_block((key,), None, run)[1]
            owners += [position] * len(rids)
            for rid in rids:
                partition, page_no = divmod(rid.page_no, _STRIDE)
                try:
                    pages, page_ids = parts[partition]
                    rows.append(pages[page_no][rid.slot])
                except IndexError:
                    raise StorageError(f"bad {rid} in {heap.file_id}") from None
                run.append(page_ids[page_no])
        return owners, rows
