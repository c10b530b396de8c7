"""The differential oracle for table loading.

``ReferenceTable`` is a ``StoredTable`` whose ``load`` and
``add_index`` are the row-at-a-time loop the column path replaced, kept
verbatim apart from names: every row is validated by
``reference_validate_row`` (one ``DataType.validate`` per value), its
keys checked against the rows before it by ``_check_row_keys``, appended
one record at a time, and keyed for each index by the per-row
``sort_key`` encoder of ``_key_encoder``.
``tests/storage/test_loader_differential.py`` holds ``StoredTable`` to
it on stored rows, index trees and errors.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Sequence, Tuple

from repro.catalog import Index, TableSchema
from repro.core.ordering import SortDirection
from repro.errors import CatalogError, StorageError
from repro.sqltypes import sort_key
from repro.storage.btree import BPlusTree
from repro.storage.database import StoredTable
from repro.storage.heap import Rid
from repro.storage.partition import PartitionedTree

_DESC = SortDirection.DESC


def reference_validate_row(schema: TableSchema, row: Sequence) -> Tuple:
    """Type-check and coerce one row against this schema."""
    if len(row) != len(schema.columns):
        raise CatalogError(
            f"row arity {len(row)} != {len(schema.columns)} "
            f"for table {schema.name}"
        )
    coerced = []
    for column, value in zip(schema.columns, row):
        checked = column.datatype.validate(value)
        if checked is None and not column.nullable:
            raise CatalogError(
                f"NULL in NOT NULL column {schema.name}.{column.name}"
            )
        coerced.append(checked)
    return tuple(coerced)


class ReferenceTable(StoredTable):
    """A stored table loaded a row at a time."""

    def __init__(self, schema, buffer_pool):
        super().__init__(schema, buffer_pool)
        self._key_encoders = {}

    def _check_row_keys(
        self, row: Tuple[Any, ...], key_values: List[set]
    ) -> None:
        for (key, positions), seen in zip(self._key_positions, key_values):
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
        """Store one validated row, routing to its partition if any."""
        if self.partitioning is None:
            return self.heap.append(row)
        partition = self.partitioning.route(
            [row[position] for position in self._partition_positions]
        )
        return self.heap.extend_to(partition, (row,))[0]

    def load(self, rows: Iterable[Sequence[Any]]) -> int:
        """Bulk-load rows, rebuild indexes packed, refresh statistics."""
        count = 0
        validated: List[Tuple[Any, ...]] = []
        key_values: List[set] = [set() for _key in self._key_positions]
        for row in rows:
            coerced = reference_validate_row(self.schema, row)
            self._check_row_keys(coerced, key_values)
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

    def _key_encoder(self, index: Index):
        """``row -> encode_index_key(row's key values, directions)``,
        built from one ``sort_key`` per value, with the key's positions
        and directions looked up once."""
        fields = [
            (self.schema.position(column.name), column.direction is _DESC)
            for column in index.key
        ]

        def encode(row: Sequence[Any]) -> Tuple[Any, ...]:
            # Flat, two elements per column: an ascending sort key is
            # its (band, value) pair; a descending one is followed by a
            # None filler.
            key: List[Any] = []
            for position, descending in fields:
                part = sort_key(row[position], descending)
                if descending:
                    key += (part, None)
                else:
                    key += part
            return tuple(key)

        return encode

    def add_index(self, index: Index, fanout: int = 64) -> BPlusTree:
        if index.name in self.indexes:
            raise StorageError(f"index {index.name} already stored")
        if self.partitioning is not None:
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
