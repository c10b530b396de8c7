"""The database: catalog + storage + statistics in one handle.

A :class:`Database` owns the buffer pool, a heap file per table, and a
B+-tree per index. It is the object examples and benchmarks construct,
load, and hand to the optimizer/executor.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Any,
    Callable,
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
from repro.sqltypes import NULL, sort_key, sort_key_column
from repro.storage.btree import BPlusTree, Key
from repro.storage.buffer import BufferPool
from repro.storage.heap import HeapFile, Rid
from repro.storage.partition import PartitionedHeap, PartitionedTree

PAGE_SIZE_BYTES = 4096
_DESC = SortDirection.DESC
_NONE_TYPE = type(None)
_NULL_TYPE = type(NULL)

KeyEncoder = Callable[[Sequence[Any]], Tuple[Any, ...]]


def encode_index_key(
    values: Sequence[Any], directions: Sequence[SortDirection]
) -> Tuple[Any, ...]:
    """Encode column values as a tree key honouring per-column direction.

    Descending columns are stored under reversed sort keys, so a forward
    leaf walk always yields the index's declared order.
    """
    return tuple(
        [
            sort_key(value, direction is _DESC)
            for value, direction in zip(values, directions)
        ]
    )


def encode_probe_keys(
    columns: Sequence[Sequence[Any]], directions: Sequence[SortDirection]
) -> List[Optional[Key]]:
    """``encode_index_key`` of each row of ``columns`` (one value list
    per probe column), or ``None`` for a row with a NULL in any probe
    column — NULL never matches, so that row is never probed.

    Each column is keyed through its type census
    (``sqltypes.sort_key_column``), and NULL rows are found by census
    too: a column holding neither ``None`` nor the NULL marker has none.
    """
    keys: List[Optional[Key]] = list(
        zip(
            *[
                sort_key_column(column, direction is _DESC)
                for column, direction in zip(columns, directions)
            ]
        )
    )
    for column in columns:
        kinds = set(map(type, column))
        if _NONE_TYPE in kinds or _NULL_TYPE in kinds:
            for row, value in enumerate(column):
                if value is None or value is NULL:
                    keys[row] = None
    return keys


class StoredTable:
    """One table's physical presence: heap file + index trees.

    Declared keys (primary and unique) are *enforced* on insert and
    load: the optimizer turns keys into functional dependencies, so a
    violated key would silently license unsound sort eliminations.
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
        self._key_encoders: Dict[str, KeyEncoder] = {}
        self._buffer_pool = buffer_pool
        self._key_positions: List[Tuple[Tuple[str, ...], List[int]]] = [
            (key, [schema.position(name) for name in key])
            for key in schema.keys()
        ]
        self._key_values: List[set] = [set() for _key in self._key_positions]

    def _check_keys(self, row: Tuple[Any, ...]) -> None:
        for (key, positions), seen in zip(
            self._key_positions, self._key_values
        ):
            values = tuple(row[position] for position in positions)
            if any(value is None for value in values):
                continue  # SQL: NULLs never collide in unique constraints
            if values in seen:
                raise CatalogError(
                    f"duplicate key {key} = {values!r} in table "
                    f"{self.schema.name}"
                )
            seen.add(values)

    def _append(self, row: Tuple[Any, ...]) -> Rid:
        """Store one validated row, routing to its partition if any.

        Key enforcement stays global (``_check_keys`` runs before this),
        so partitioning never weakens uniqueness.
        """
        if self.partitioning is None:
            return self.heap.append(row)
        partition = self.partitioning.route(
            [row[position] for position in self._partition_positions]
        )
        return self.heap.append_to(partition, row)

    def insert(self, row: Sequence[Any]) -> Rid:
        """Validate, key-check, store, and index one row."""
        coerced = self.schema.validate_row(row)
        self._check_keys(coerced)
        rid = self._append(coerced)
        for name, (_index, tree) in self.indexes.items():
            tree.insert(self._key_encoders[name](coerced), rid)
        return rid

    def load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-load rows, rebuild indexes packed, refresh statistics."""
        count = 0
        validated: List[Tuple[Any, ...]] = []
        self._key_values = [set() for _key in self._key_positions]
        for row in rows:
            coerced = self.schema.validate_row(row)
            self._check_keys(coerced)
            validated.append(coerced)
            count += 1
        self.heap.truncate()
        rids = [self._append(row) for row in validated]
        for name, (_index, tree) in self.indexes.items():
            tree.bulk_load(
                list(zip(map(self._key_encoders[name], validated), rids))
            )
        self.analyze()
        return count

    def _key_encoder(self, index: Index) -> KeyEncoder:
        """``row -> encode_index_key(row's key values, directions)``,
        with the key's positions and directions looked up once."""
        fields = [
            (self.schema.position(column.name), column.direction is _DESC)
            for column in index.key
        ]

        def encode(row: Sequence[Any]) -> Tuple[Any, ...]:
            return tuple(
                [
                    sort_key(row[position], descending)
                    for position, descending in fields
                ]
            )

        return encode

    def add_index(self, index: Index, fanout: int = 64) -> BPlusTree:
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
        encode = self._key_encoder(index)
        tree.bulk_load([(encode(row), rid) for rid, row in self.heap.scan()])
        self.indexes[index.name] = (index, tree)
        self._key_encoders[index.name] = encode
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
