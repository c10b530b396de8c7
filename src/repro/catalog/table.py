"""Table schemas: column layout plus declared keys."""

from __future__ import annotations

from itertools import islice
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.column import Column
from repro.catalog.partition import PartitionSpec
from repro.catalog.stats import TableStats
from repro.errors import CatalogError

_NONE_TYPE = type(None)


class TableSchema:
    """A base table's definition.

    Keys (the primary key and any unique constraints) matter to order
    optimization: each key ``K`` contributes the FD ``K -> all columns``
    to streams scanning the table (Section 4.1).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[Column],
        primary_key: Sequence[str] = (),
        unique_keys: Sequence[Sequence[str]] = (),
        partitioning: Optional[PartitionSpec] = None,
    ):
        if not columns:
            raise CatalogError(f"table {name} needs at least one column")
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(columns)
        self._by_name: Dict[str, Column] = {}
        for column in self.columns:
            if column.name in self._by_name:
                raise CatalogError(
                    f"duplicate column {column.name} in table {name}"
                )
            self._by_name[column.name] = column
        self.primary_key: Tuple[str, ...] = tuple(primary_key)
        self.unique_keys: Tuple[Tuple[str, ...], ...] = tuple(
            tuple(key) for key in unique_keys
        )
        for key in (self.primary_key,) + self.unique_keys:
            for column_name in key:
                if column_name not in self._by_name:
                    raise CatalogError(
                        f"key column {column_name} not in table {name}"
                    )
        self.partitioning = partitioning
        if partitioning is not None:
            for column_name in partitioning.columns:
                if column_name not in self._by_name:
                    raise CatalogError(
                        f"partition column {column_name} not in table {name}"
                    )
        self.stats = TableStats()

    @property
    def column_names(self) -> List[str]:
        return [column.name for column in self.columns]

    def column(self, name: str) -> Column:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(
                f"no column {name} in table {self.name}"
            ) from None

    def has_column(self, name: str) -> bool:
        return name in self._by_name

    def position(self, name: str) -> int:
        for index, column in enumerate(self.columns):
            if column.name == name:
                return index
        raise CatalogError(f"no column {name} in table {self.name}")

    def keys(self) -> List[Tuple[str, ...]]:
        """Every declared key (primary first), without duplicates."""
        found: List[Tuple[str, ...]] = []
        if self.primary_key:
            found.append(self.primary_key)
        for key in self.unique_keys:
            if key not in found:
                found.append(key)
        return found

    def row_width(self) -> int:
        """Estimated record width in bytes (for paging and cost)."""
        return sum(column.datatype.width for column in self.columns) + 4

    def validate_row(self, row: Sequence) -> Tuple:
        """Type-check and coerce one row against this schema: the
        one-row case of :meth:`validate_rows`, raising its error."""
        valid, error = self.validate_rows([row])
        if error is not None:
            raise error
        return valid[0]

    def validate_rows(
        self, rows: Sequence[Sequence]
    ) -> Tuple[List[Tuple], Optional[Exception]]:
        """Type-check and coerce ``rows`` a column at a time.

        Returns ``(valid, error)``: ``error`` is what the first bad row
        raises, checked as a row at a time would (its arity, then its
        columns left to right: the value, then NULL in a NOT NULL
        column), or ``None``; ``valid`` holds the coerced rows before it.

        Each column is read once through its type census
        (``DataType.validate_column``). When every column is canonical
        and every row an exact tuple, ``valid`` is the caller's own row
        objects, so loading keeps one copy of the rows; otherwise the
        rows are rebuilt from the coerced columns.
        """
        width = len(self.columns)
        checked = rows
        error: Optional[Exception] = None
        if set(map(len, rows)) - {width}:
            bad = next(n for n, row in enumerate(rows) if len(row) != width)
            checked = rows[:bad]
            error = CatalogError(
                f"row arity {len(rows[bad])} != {width} "
                f"for table {self.name}"
            )
        coerced: Dict[int, Sequence] = {}
        for position, column in enumerate(self.columns):
            values = list(map(itemgetter(position), checked))
            result, fault = column.datatype.validate_column(values)
            if not column.nullable and _NONE_TYPE in set(map(type, values)):
                null = values.index(None)
                if fault is None or null < fault[0]:
                    fault = (
                        null,
                        CatalogError(
                            f"NULL in NOT NULL column "
                            f"{self.name}.{column.name}"
                        ),
                    )
            if fault is not None:
                checked = checked[: fault[0]]
                error = fault[1]
            if result is not values:
                coerced[position] = result
        if coerced or set(map(type, checked)) - {tuple}:
            # A column coerced before a later column's fault cut the
            # rows short runs longer than ``checked``.
            columns = [
                coerced[position]
                if position in coerced
                else list(map(itemgetter(position), checked))
                for position in range(width)
            ]
            return list(islice(zip(*columns), len(checked))), error
        return list(checked), error

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TableSchema({self.name})"
