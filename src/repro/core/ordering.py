"""Order specifications.

The paper denotes both *order properties* (what a stream actually is
ordered by) and *interesting orders* (what some operation would like) as
a column list in major-to-minor order. :class:`OrderSpec` is that list;
each entry is an :class:`OrderKey` carrying a column and a direction.

The paper's prose assumes ascending everywhere "without loss of
generality"; we carry directions explicitly because Section 7 (and TPC-D
Query 3's ``ORDER BY rev DESC``) need them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

from repro.errors import OrderError
from repro.expr.nodes import ColumnRef


class SortDirection(enum.Enum):
    """Sort direction of one order key."""

    ASC = "asc"
    DESC = "desc"

    def reversed(self) -> "SortDirection":
        if self is SortDirection.ASC:
            return SortDirection.DESC
        return SortDirection.ASC


@dataclass(frozen=True)
class OrderKey:
    """One (column, direction) pair within an order specification."""

    column: ColumnRef
    direction: SortDirection = SortDirection.ASC

    def with_column(self, column: ColumnRef) -> "OrderKey":
        """The same key expressed on a different (equivalent) column."""
        return OrderKey(column, self.direction)

    def reversed(self) -> "OrderKey":
        return OrderKey(self.column, self.direction.reversed())

    def __str__(self) -> str:
        suffix = " desc" if self.direction is SortDirection.DESC else ""
        return f"{self.column}{suffix}"


def asc(column: ColumnRef) -> OrderKey:
    """Shorthand for an ascending order key."""
    return OrderKey(column, SortDirection.ASC)


def desc(column: ColumnRef) -> OrderKey:
    """Shorthand for a descending order key."""
    return OrderKey(column, SortDirection.DESC)


class OrderSpec:
    """An immutable, hashable sequence of order keys.

    The empty spec means "no particular order"; as an interesting order it
    is trivially satisfied, and as an order property it promises nothing.
    """

    __slots__ = ("_keys", "_hash")

    def __init__(self, keys: Iterable[OrderKey] = ()):
        keys = tuple(keys)
        seen = set()
        for key in keys:
            if not isinstance(key, OrderKey):
                raise OrderError(f"OrderSpec entries must be OrderKey, got {key!r}")
            if key.column in seen:
                raise OrderError(f"duplicate column {key.column} in order spec")
            seen.add(key.column)
        self._keys: Tuple[OrderKey, ...] = keys
        # Specs are memo-table keys in the algebra's caching layer; the
        # hash is cached because it is recomputed far more often than
        # specs are created.
        self._hash: int = None

    @classmethod
    def of(cls, *columns: ColumnRef) -> "OrderSpec":
        """Ascending spec over ``columns``, the paper's (c1, c2, ...)."""
        return cls(OrderKey(column) for column in columns)

    @property
    def keys(self) -> Tuple[OrderKey, ...]:
        return self._keys

    @property
    def columns(self) -> Tuple[ColumnRef, ...]:
        return tuple(key.column for key in self._keys)

    def is_empty(self) -> bool:
        return not self._keys

    def head(self) -> OrderKey:
        if not self._keys:
            raise OrderError("empty order spec has no head")
        return self._keys[0]

    def prefix(self, length: int) -> "OrderSpec":
        return OrderSpec(self._keys[:length])

    def concat(self, other: "OrderSpec") -> "OrderSpec":
        """This spec followed by ``other``'s keys, skipping duplicates."""
        seen = {key.column for key in self._keys}
        extra = [key for key in other._keys if key.column not in seen]
        return OrderSpec(self._keys + tuple(extra))

    def is_prefix_of(self, other: "OrderSpec") -> bool:
        """Whether this spec's keys are exactly the first keys of ``other``."""
        return self._keys == other._keys[: len(self._keys)]

    def reversed(self) -> "OrderSpec":
        """The spec with every direction flipped.

        A stream ordered by a spec is, read backwards, ordered by its
        reversal; index scans exploit this for backward scans.
        """
        return OrderSpec(key.reversed() for key in self._keys)

    def subset_columns(self, allowed) -> bool:
        """Whether every referenced column is in ``allowed``."""
        allowed = set(allowed)
        return all(key.column in allowed for key in self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self) -> Iterator[OrderKey]:
        return iter(self._keys)

    def __getitem__(self, index: int) -> OrderKey:
        return self._keys[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, OrderSpec) and self._keys == other._keys

    def __hash__(self) -> int:
        cached = self._hash
        if cached is None:
            cached = hash(self._keys)
            self._hash = cached
        return cached

    def __bool__(self) -> bool:
        return bool(self._keys)

    def __str__(self) -> str:
        inner = ", ".join(str(key) for key in self._keys)
        return f"({inner})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OrderSpec{self}"


EMPTY_ORDER = OrderSpec()


def spec(*keys: OrderKey) -> OrderSpec:
    """Shorthand constructor from explicit order keys."""
    return OrderSpec(keys)
