"""Runtime value semantics: NULLs, three-valued comparison, sort keys.

SQL NULL is represented by Python ``None`` inside records. Comparisons
involving NULL yield ``None`` (unknown) under three-valued logic, while
*sorting* needs a total order, so :func:`sort_key` places NULLs after all
non-NULL values in ascending order (DB2 sorts NULLs high).

:func:`sort_key` is the one definition of order: a value's key is a
``(band, value)`` pair, NULL's the ``NULL_PAIR`` above every band, so
every comparison of keys is a C tuple compare. Grouping needs only
equality, so :func:`group_key` maps each value to a marker that equals
another exactly when their sort keys are equal — for the common exact
types the value itself. The column builders :func:`sort_key_elements`,
:func:`sort_key_column` and :func:`group_key_column` give the same keys
a value at a time would, but read a column's *type census*
(``set(map(type, column))``, C speed) first and skip the per-value call
when the column holds one plain type.
:func:`ordering_key_column` goes one step further for a sort that takes
its direction from ``list.sort``'s ``reverse``: a column of one plain
type without NULLs is its own key.
"""

from __future__ import annotations

import datetime
import decimal
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import TypeSystemError


class SqlNull:
    """Singleton marker usable where a distinguished NULL object is handy.

    Records store plain ``None``; this object exists for readability in
    literals (``Literal(NULL)``) and prints as ``NULL``.
    """

    _instance: Optional["SqlNull"] = None

    def __new__(cls) -> "SqlNull":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False


NULL = SqlNull()


def is_null(value: Any) -> bool:
    """True when ``value`` is SQL NULL (either ``None`` or the marker)."""
    return value is None or value is NULL


def coerce_value(value: Any) -> Any:
    """Normalize a Python value for storage in a record.

    The NULL marker becomes ``None``; everything else passes through.
    """
    if value is NULL:
        return None
    return value


_NUMERIC = (int, float, decimal.Decimal)


def _comparable(left: Any, right: Any) -> bool:
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
        return True
    if isinstance(left, str) and isinstance(right, str):
        return True
    if isinstance(left, datetime.date) and isinstance(right, datetime.date):
        return True
    return False


def sql_compare(left: Any, right: Any) -> Optional[int]:
    """Three-valued comparison.

    Returns -1, 0, or 1 for definite orderings, and ``None`` when either
    side is NULL (unknown). Raises TypeSystemError on incomparable types,
    because that is a planning bug, not a data condition.
    """
    if is_null(left) or is_null(right):
        return None
    if not _comparable(left, right):
        raise TypeSystemError(f"cannot compare {left!r} with {right!r}")
    if isinstance(left, decimal.Decimal) or isinstance(right, decimal.Decimal):
        left = decimal.Decimal(str(left)) if isinstance(left, float) else left
        right = decimal.Decimal(str(right)) if isinstance(right, float) else right
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def sql_equal(left: Any, right: Any) -> Optional[bool]:
    """Three-valued equality: ``None`` when either side is NULL."""
    cmp = sql_compare(left, right)
    if cmp is None:
        return None
    return cmp == 0


class _Reversed:
    """Sort-key wrapper inverting the order of the wrapped key.

    Keys one DESC column so that a single key tuple orders a mixed
    ASC/DESC specification. Its users are the DESC columns of the flat
    keys of ``storage.database.encode_index_keys`` (a ``None`` after
    each): index trees and probes, and the merge exchange. ``SortOp``
    sorts by :func:`ordering_key_column` and passes the direction as
    ``reverse`` instead.
    """

    __slots__ = ("key",)

    def __init__(self, key: Any):
        self.key = key

    def __lt__(self, other: "_Reversed") -> bool:
        return other.key < self.key

    def __le__(self, other: "_Reversed") -> bool:
        return other.key <= self.key

    def __gt__(self, other: "_Reversed") -> bool:
        return other.key > self.key

    def __ge__(self, other: "_Reversed") -> bool:
        return other.key >= self.key

    def __eq__(self, other: Any) -> bool:
        return isinstance(other, _Reversed) and other.key == self.key

    def __hash__(self) -> int:
        return hash(("_Reversed", self.key))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"desc({self.key!r})"


# NULL's sort key: its band is above every value's band, so NULLs sort
# high, and two NULL keys tie.
_NULL_BAND = 4
NULL_PAIR = (_NULL_BAND, None)


def sort_key(value: Any, descending: bool = False) -> Any:
    """Total-order sort key for one value.

    NULLs sort after all values ascending (and therefore first descending),
    matching DB2. Decimals and floats are unified so mixed numeric columns
    sort consistently.
    """
    if type(value) is int:
        # The hottest case, tested first with an exact type check
        # (bools must fall through to their own band). Raw ints order
        # (and hash) consistently against the Decimal keys of the other
        # numeric types, without paying a Decimal construction per
        # value on the sort path.
        key: Any = (0, value)
    elif is_null(value):
        key = NULL_PAIR
    elif isinstance(value, decimal.Decimal):
        key = (0, value)
    elif isinstance(value, bool):
        key = (2, value)
    elif isinstance(value, float):
        key = (0, decimal.Decimal(str(value)))
    elif isinstance(value, int):  # int subclasses other than bool
        key = (0, value)
    elif isinstance(value, str):
        key = (1, value)
    elif isinstance(value, datetime.date):
        key = (3, value.toordinal())
    else:
        raise TypeSystemError(f"unsortable value {value!r}")
    if descending:
        return _Reversed(key)
    return key


_NONE_TYPE = type(None)

# Exact types whose sort key is ``(band, value)`` or, for date, ``(3,
# ordinal)``: a column of one of them (NULLs allowed) is split into its
# key elements without a per-value call. They and ``None`` are also
# their own group markers.
_BANDS = {int: 0, decimal.Decimal: 0, str: 1, datetime.date: 3}
_CENSUS_KEYED = frozenset(_BANDS)
_MARKER_TYPES = _CENSUS_KEYED | {_NONE_TYPE}


def _split_sort_keys(
    values: Sequence[Any],
) -> Optional[Tuple[Sequence[Any], Sequence[Any]]]:
    """:func:`sort_key_elements` for a column whose type census is one
    exact int / Decimal / str / date type, optionally with ``None``
    (whose ``NULL_PAIR`` holds ``None`` as its value), split without a
    per-value call; ``None`` for any other mix."""
    kinds = set(map(type, values))
    nulls = _NONE_TYPE in kinds
    kinds.discard(_NONE_TYPE)
    if len(kinds) > 1 or not kinds <= _CENSUS_KEYED:
        return None
    if not kinds:
        return [_NULL_BAND] * len(values), values
    kind = kinds.pop()
    band = _BANDS[kind]
    if kind is datetime.date:
        values = (
            [None if v is None else v.toordinal() for v in values]
            if nulls
            else [v.toordinal() for v in values]
        )
    if nulls:
        null_band = _NULL_BAND
        return [null_band if v is None else band for v in values], values
    return [band] * len(values), values


def sort_key_elements(
    values: Sequence[Any],
) -> Tuple[Sequence[Any], Sequence[Any]]:
    """The band column and the value column of ``values``' ascending
    sort keys: ``sort_key(values[i]) == (bands[i], elements[i])``.

    Built from the column's type census (see :func:`_split_sort_keys`);
    any other mix goes through :func:`sort_key` value by value. The
    value column may alias ``values``; callers must not mutate it.
    """
    elements = _split_sort_keys(values)
    if elements is None:
        keys = list(map(sort_key, values))
        return [key[0] for key in keys], [key[1] for key in keys]
    return elements


def sort_key_column(
    values: Sequence[Any], descending: bool = False
) -> List[Any]:
    """``[sort_key(v, descending) for v in values]``: the zipped
    columns of :func:`_split_sort_keys`, or the per-value keys when the
    column's census is mixed."""
    elements = _split_sort_keys(values)
    if elements is None:
        return [sort_key(value, descending) for value in values]
    keys = list(zip(*elements))
    if descending:
        return list(map(_Reversed, keys))
    return keys


def ordering_key_column(values: Sequence[Any]) -> Sequence[Any]:
    """Ascending keys of ``values`` for a stable sort that takes its
    direction from ``reverse``: sorting positions by these keys with
    ``reverse=d`` orders them as a stable sort by ``sort_key(v, d)``.

    A column whose type census is one exact int, str, Decimal or date,
    with no NULL, is returned itself: those values order and tie
    exactly as their sort keys do. Any other column gets
    ``sort_key_column(values)`` (ascending). The result may alias
    ``values``; callers must not mutate it.
    """
    kinds = set(map(type, values))
    if len(kinds) == 1 and kinds <= _CENSUS_KEYED:
        return values
    return sort_key_column(values)


def group_key(value: Any) -> Any:
    """Equality marker for grouping: ``group_key(a) == group_key(b)``
    exactly when ``sort_key(a) == sort_key(b)`` (and equal markers hash
    equal).

    Exact ``str``, ``int``, ``Decimal``, ``date`` and ``None`` are their
    own markers (Python's numeric equality and hashing already agree
    across int and Decimal). Every other value maps to its class's
    representative: the NULL marker to ``None``, a float to the Decimal
    its sort key holds, an int subclass to the plain int, a date subclass
    (a datetime) to the plain date of the same day, and a bool to its
    sort key (so ``True`` does not meet ``1``). An unsortable value
    raises what :func:`sort_key` raises.
    """
    if type(value) in _MARKER_TYPES:
        return value
    if value is NULL:
        return None
    if isinstance(value, bool):
        return (2, value)
    if isinstance(value, float):
        return decimal.Decimal(str(value))
    if isinstance(value, int):
        return int(value)
    if isinstance(value, decimal.Decimal):
        return decimal.Decimal(value)
    if isinstance(value, str):
        return str(value)
    if isinstance(value, datetime.date):
        return datetime.date.fromordinal(value.toordinal())
    raise TypeSystemError(f"unsortable value {value!r}")


def group_key_column(values: Sequence[Any]) -> Sequence[Any]:
    """``[group_key(v) for v in values]``: the column itself when its
    type census is within the exact marker types (the common case, no
    per-value work at all), else mapped through :func:`group_key`.
    NULL (either form) becomes ``None``. The result may alias
    ``values``; callers must not mutate it."""
    if _MARKER_TYPES.issuperset(map(type, values)):
        return values
    return list(map(group_key, values))
