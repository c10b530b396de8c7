"""The database: catalog + storage + statistics in one handle.

A :class:`Database` owns the buffer pool, a heap file per table, and a
B+-tree per index. It is the object examples and benchmarks construct,
load, and hand to the optimizer/executor.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.catalog import Catalog, Index, TableSchema, TableStats
from repro.core.ordering import SortDirection
from repro.errors import CatalogError, StorageError
from repro.sqltypes import NULL, sort_key_column, sort_key_elements
from repro.storage.btree import BPlusTree, Key
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile, Rid
from repro.storage.partition import PartitionedHeap, PartitionedTree

PAGE_SIZE_BYTES = 4096
_DESC = SortDirection.DESC
_NONE_TYPE = type(None)
_NULL_TYPES = frozenset({_NONE_TYPE, type(NULL)})


def encode_index_key(
    values: Sequence[Any], directions: Sequence[SortDirection]
) -> Key:
    """The one-row case of :func:`encode_index_keys`."""
    keys = encode_index_keys([[value] for value in values], directions)
    return keys[0] if keys else ()


def encode_index_keys(
    columns: Sequence[Sequence[Any]], directions: Sequence[SortDirection]
) -> List[Key]:
    """The flat key of each row of ``columns`` (one value list per key
    column): the engine's one multi-column ordered key, used by index
    trees and probes, merge joins and the merge exchange.

    Each key column gives two element columns, built through its census
    and zipped once: an ascending column its ``sort_key`` bands and
    values (NULL's are ``NULL_PAIR``'s, so it sorts high), a descending
    one its ``_Reversed`` sort keys and a ``None`` filler. Flat keys
    order and tie exactly as the nested per-column ``sort_key`` tuples.
    A key over the first k columns is the stored key's first 2k
    elements; one column's key is its sort-key pair."""
    elements: List[Iterable[Any]] = []
    for column, direction in zip(columns, directions):
        if direction is _DESC:
            elements += (sort_key_column(column, True), repeat(None))
        else:
            elements += sort_key_elements(column)
    return list(zip(*elements))


def encode_probe_keys(
    columns: Sequence[Sequence[Any]], directions: Sequence[SortDirection]
) -> List[Optional[Key]]:
    """:func:`encode_index_keys`, or ``None`` for a row with a NULL in
    any probe column — NULL never matches, so that row is never probed.
    NULL rows are found by census too: a column holding neither
    ``None`` nor the NULL marker has none."""
    keys: List[Optional[Key]] = encode_index_keys(  # type: ignore[assignment]
        columns, directions
    )
    for column in columns:
        if not _NULL_TYPES.isdisjoint(map(type, column)):
            for row, value in enumerate(column):
                if value is None or value is NULL:
                    keys[row] = None
    return keys


def _first_repeat(keyed: Sequence[Tuple[Any, ...]]) -> int:
    """The first row of ``keyed`` whose key tuple holds no NULL and is
    in an earlier row (one must exist)."""
    earlier: set = set()
    for number, values in enumerate(keyed):
        if None in values:
            continue
        if values in earlier:
            return number
        earlier.add(values)
    raise AssertionError("no repeated key")


class StoredTable:
    """One table's physical presence: heap file + index trees.

    Storage is load-only: :meth:`load` replaces the table's rows and
    nothing adds one. Declared keys (primary and unique) are *enforced*
    on every load: the optimizer turns keys into functional
    dependencies, so a violated key would silently license unsound sort
    eliminations.

    ``load`` works a column at a time: validate
    (``TableSchema.validate_rows``), enforce keys (one set per key, kept
    only while the rows are checked), append to the heap a page at a
    time, key every index through the column encoder
    ``encode_probe_keys`` uses. A load that fails validation or a key
    check writes nothing.
    """

    def __init__(self, schema: TableSchema, buffer_pool: BufferPool):
        self.schema = schema
        rows_per_page = max(1, PAGE_SIZE_BYTES // max(1, schema.row_width()))
        self.rows_per_page = rows_per_page
        self.partitioning = schema.partitioning
        if self.partitioning is not None:
            self.heap: HeapFile = PartitionedHeap(
                schema.name,
                buffer_pool,
                rows_per_page,
                self.partitioning.partition_count,
            )
            self._partition_positions: List[int] = [
                schema.position(name) for name in self.partitioning.columns
            ]
        else:
            self.heap = HeapFile(
                f"heap:{schema.name}", buffer_pool, rows_per_page
            )
            self._partition_positions = []
        self.indexes: Dict[str, Tuple[Index, BPlusTree]] = {}
        self._buffer_pool = buffer_pool
        self._key_positions: List[Tuple[Tuple[str, ...], List[int]]] = [
            (key, [schema.position(name) for name in key])
            for key in schema.keys()
        ]

    def _check_keys(self, rows: Sequence[Tuple[Any, ...]]) -> None:
        """Raise the duplicate a row-at-a-time check meets first: the
        earliest row, and within it the first key, whose key tuple is
        in an earlier row. A tuple holding a NULL is never a duplicate
        (SQL: NULLs never collide in unique constraints).
        """
        duplicate: Optional[Tuple[int, CatalogError]] = None
        for key, positions in self._key_positions:
            columns = [list(map(itemgetter(p), rows)) for p in positions]
            keyed = list(zip(*columns))
            present = keyed
            if any(_NONE_TYPE in set(map(type, c)) for c in columns):
                present = [values for values in keyed if None not in values]
            if len(set(present)) < len(present):
                number = _first_repeat(keyed)
                if duplicate is None or number < duplicate[0]:
                    duplicate = (
                        number,
                        CatalogError(
                            f"duplicate key {key} = {keyed[number]!r} in "
                            f"table {self.schema.name}"
                        ),
                    )
        if duplicate is not None:
            raise duplicate[1]

    def _checked(self, rows: Sequence[Sequence[Any]]) -> List[Tuple[Any, ...]]:
        """``rows`` validated and key-checked: the rows to store. Raises
        the error a row loop meets first — a duplicate among the rows
        before the first bad one wins over that row's own error."""
        valid, error = self.schema.validate_rows(rows)
        self._check_keys(valid)
        if error is not None:
            raise error
        return valid

    def _store(self, rows: Sequence[Tuple[Any, ...]]) -> List[Rid]:
        """Append validated rows to the heap (each to its partition, if
        any), returning their RIDs in row order.

        Key enforcement stays global (``_check_keys`` runs before this),
        so partitioning never weakens uniqueness.
        """
        if self.partitioning is None:
            return self.heap.extend(rows)
        route = self.partitioning.route
        positions = self._partition_positions
        buckets: List[List[int]] = [
            [] for _ in range(self.partitioning.partition_count)
        ]
        for number, row in enumerate(rows):
            buckets[route([row[p] for p in positions])].append(number)
        rids: List[Rid] = [None] * len(rows)  # type: ignore[list-item]
        for partition, numbers in enumerate(buckets):
            stored = self.heap.extend_to(
                partition, [rows[number] for number in numbers]
            )
            for number, rid in zip(numbers, stored):
                rids[number] = rid
        return rids

    def _index_keys(
        self, index: Index, rows: Sequence[Tuple[Any, ...]]
    ) -> List[Key]:
        """``index``'s tree key for each of ``rows``."""
        schema = self.schema
        return encode_index_keys(
            [
                list(map(itemgetter(schema.position(column.name)), rows))
                for column in index.key
            ],
            [column.direction for column in index.key],
        )

    def load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Replace the table's rows, rebuild indexes packed, refresh
        statistics.

        One pass per column validates and key-checks all rows before
        anything is stored; rows already canonical exact tuples are
        stored as the caller's own objects, not copies. Heap pages and
        RIDs are made a page at a time.
        """
        rows = self._checked(list(rows))
        self.heap.truncate()
        rids = self._store(rows)
        for index, tree in self.indexes.values():
            tree.bulk_load(zip(self._index_keys(index, rows), rids))
        self.analyze()
        return len(rows)

    def add_index(self, index: Index, fanout: int = 64) -> BPlusTree:
        """Build and store a packed tree for ``index`` from one
        sequential heap pass (charged page by page), keyed a column at
        a time as :meth:`load` keys it."""
        if index.name in self.indexes:
            raise StorageError(f"index {index.name} already stored")
        if self.partitioning is not None:
            # Per-partition trees, co-partitioned with the heap via the
            # partition encoded in each RID.
            tree: BPlusTree = PartitionedTree(
                index.name,
                self._buffer_pool,
                fanout,
                self.partitioning.partition_count,
            )
        else:
            tree = BPlusTree(f"index:{index.name}", self._buffer_pool, fanout)
        rows = list(chain.from_iterable(self.heap.scan_pages()))
        tree.bulk_load(zip(self._index_keys(index, rows), self.heap.rids()))
        self.indexes[index.name] = (index, tree)
        return tree

    def analyze(self) -> TableStats:
        """Recompute exact statistics from the stored rows (one
        sequential pass, charged page by page)."""
        self.schema.stats = TableStats.collect(
            self.schema.column_names,
            chain.from_iterable(self.heap.scan_pages()),
            page_rows=self.rows_per_page,
        )
        return self.schema.stats

    def row_count(self) -> int:
        return self.heap.row_count


class Database:
    """Catalog + storage, the one-stop handle for examples and benches."""

    def __init__(self, buffer_pool_pages: int = 2048):
        self.catalog = Catalog()
        self.buffer_pool = BufferPool(buffer_pool_pages)
        self._stores: Dict[str, StoredTable] = {}

    def create_table(
        self,
        schema: TableSchema,
        rows: Optional[Iterable[Sequence[Any]]] = None,
    ) -> StoredTable:
        self.catalog.create_table(schema)
        store = StoredTable(schema, self.buffer_pool)
        self._stores[schema.name.lower()] = store
        if rows is not None:
            store.load(rows)
        return store

    def create_index(self, index: Index) -> BPlusTree:
        self.catalog.create_index(index)
        return self.store(index.table_name).add_index(index)

    def store(self, table_name: str) -> StoredTable:
        try:
            return self._stores[table_name.lower()]
        except KeyError:
            raise CatalogError(f"no stored table {table_name}") from None

    def index_tree(self, index_name: str) -> BPlusTree:
        index = self.catalog.index(index_name)
        return self.store(index.table_name).indexes[index.name][1]

    def analyze_all(self) -> None:
        for stored in self._stores.values():
            stored.analyze()
        self.catalog.note_stats_refresh()

    def analyze_table(self, table_name: str) -> None:
        """Refresh one table's statistics (a versioned stats change)."""
        self.store(table_name).analyze()
        self.catalog.note_stats_refresh()

    def reset_io(self, cold: bool = False) -> None:
        """Reset I/O counters; ``cold=True`` also empties the cache."""
        if cold:
            self.buffer_pool.clear()
        else:
            self.buffer_pool.reset_stats()
