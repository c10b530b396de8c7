"""Declared SQL data types.

Types are lightweight, immutable descriptors. They know how to validate
and coerce Python values, estimate their on-page width (the storage layer
and cost model both need record widths), and decide comparability.
"""

from __future__ import annotations

import datetime
import decimal
import enum
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.errors import TypeSystemError

_NONE_TYPE = type(None)


class TypeFamily(enum.Enum):
    """Coarse classification used for comparability and coercion rules."""

    NUMERIC = "numeric"
    CHARACTER = "character"
    DATETIME = "datetime"
    BOOLEAN = "boolean"


@dataclass(frozen=True)
class DataType:
    """Base descriptor for a declared SQL type.

    Attributes:
        name: SQL spelling, e.g. ``"INTEGER"``.
        family: coarse family used for comparability checks.
        width: estimated stored width in bytes (used by the cost model).
    """

    name: str
    family: TypeFamily
    width: int

    def validate(self, value):
        """Return ``value`` coerced to this type, or raise TypeSystemError.

        ``None`` (SQL NULL) is always legal and returned unchanged. A
        conversion's arithmetic error (decimal's ``InvalidOperation``,
        a float overflow) is raised as a ``TypeSystemError`` naming
        the value and the type, from the original.
        """
        if value is None:
            return None
        try:
            return self._coerce(value)
        except ArithmeticError as error:
            raise TypeSystemError(
                f"cannot store {value!r} in {self.name}: "
                f"{type(error).__name__}"
            ) from error

    def _coerce(self, value):
        raise NotImplementedError

    # The one exact Python type this type stores; a value of it that
    # ``_canonical`` accepts validates to itself. (NoneType: none, so
    # every non-NULL value is validated one by one.)
    _exact = _NONE_TYPE

    def _canonical(self, values: Sequence[Any]) -> bool:
        """Whether every (non-NULL, exact-typed) value of ``values``
        validates to itself."""
        return True

    def validate_column(
        self, values: Sequence[Any]
    ) -> Tuple[Sequence[Any], Optional[Tuple[int, Exception]]]:
        """:meth:`validate` of each value in order, up to the first that
        raises: ``(coerced, fault)``, where ``fault`` is that value's
        position and error (``None`` when every value passes) and
        ``coerced`` holds the values before it.

        The column's type census is read first: when it holds only the
        exact stored type (and NULLs) and the values are already
        canonical, every value would validate to itself, so ``values``
        itself comes back and nothing is copied. Any other column is
        validated value by value.
        """
        kinds = set(map(type, values))
        if kinds <= {self._exact, _NONE_TYPE}:
            present = (
                [value for value in values if value is not None]
                if _NONE_TYPE in kinds
                else values
            )
            if not present or self._canonical(present):
                return values, None
        coerced: List[Any] = []
        validate = self.validate
        for position, value in enumerate(values):
            try:
                coerced.append(validate(value))
            except TypeSystemError as error:
                return coerced, (position, error)
        return coerced, None

    def is_comparable_with(self, other: "DataType") -> bool:
        """Whether values of this type can be compared with ``other``'s."""
        return self.family is other.family

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class IntegerType(DataType):
    """32/64-bit integers (we do not distinguish; Python ints are exact)."""

    _exact = int

    def _coerce(self, value):
        if isinstance(value, bool):
            raise TypeSystemError(f"cannot store boolean {value!r} in {self.name}")
        if isinstance(value, int):
            return value
        if isinstance(value, decimal.Decimal) and value == value.to_integral_value():
            return int(value)
        raise TypeSystemError(f"cannot store {value!r} in {self.name}")


@dataclass(frozen=True)
class DoubleType(DataType):
    """Double-precision floating point. NaN is not a value: it equals
    nothing, not even itself, so no order or statistic can hold it."""

    _exact = float

    def _canonical(self, values: Sequence[Any]) -> bool:
        return not any(map(math.isnan, values))

    def _coerce(self, value):
        if isinstance(value, bool):
            raise TypeSystemError(f"cannot store boolean {value!r} in {self.name}")
        # Before ``float()``, which raises ValueError on a signalling NaN.
        if isinstance(value, decimal.Decimal) and value.is_nan():
            raise TypeSystemError(f"cannot store {value!r} in {self.name}")
        if isinstance(value, (int, float, decimal.Decimal)):
            coerced = float(value)
            if math.isnan(coerced):
                raise TypeSystemError(f"cannot store {value!r} in {self.name}")
            return coerced
        raise TypeSystemError(f"cannot store {value!r} in {self.name}")


@dataclass(frozen=True)
class DecimalType(DataType):
    """Fixed-point DECIMAL(precision, scale). NaN (quiet or
    signalling, or a float NaN) is rejected, as in DOUBLE."""

    precision: int = 15
    scale: int = 2

    _exact = decimal.Decimal

    def _canonical(self, values: Sequence[Any]) -> bool:
        """Already at this scale (``same_quantum`` of the quantum, which
        no NaN or infinity is) and within the context's precision, so
        quantizing changes nothing and cannot raise."""
        quantum = decimal.Decimal(1).scaleb(-self.scale)
        if not all(map(quantum.same_quantum, values)):
            return False
        limit = decimal.Decimal(1).scaleb(
            decimal.getcontext().prec - self.scale
        )
        return -limit < min(values) and max(values) < limit

    def _coerce(self, value):
        if isinstance(value, bool):
            raise TypeSystemError(f"cannot store boolean {value!r} in {self.name}")
        if isinstance(value, (int, decimal.Decimal)):
            exact = decimal.Decimal(value)
        elif isinstance(value, float):
            exact = decimal.Decimal(str(value))
        else:
            raise TypeSystemError(f"cannot store {value!r} in {self.name}")
        if exact.is_nan():
            raise TypeSystemError(f"cannot store {value!r} in {self.name}")
        quantum = decimal.Decimal(1).scaleb(-self.scale)
        return exact.quantize(quantum, rounding=decimal.ROUND_HALF_UP)


@dataclass(frozen=True)
class VarcharType(DataType):
    """Variable-length character strings with a declared maximum."""

    max_length: int = 255

    _exact = str

    def _canonical(self, values: Sequence[Any]) -> bool:
        return max(map(len, values)) <= self.max_length

    def _coerce(self, value):
        if isinstance(value, str):
            if len(value) > self.max_length:
                raise TypeSystemError(
                    f"string of length {len(value)} exceeds {self.name}"
                )
            return value
        raise TypeSystemError(f"cannot store {value!r} in {self.name}")


@dataclass(frozen=True)
class DateType(DataType):
    """Calendar dates."""

    _exact = datetime.date

    def _coerce(self, value):
        if isinstance(value, datetime.datetime):
            return value.date()
        if isinstance(value, datetime.date):
            return value
        if isinstance(value, str):
            try:
                return datetime.date.fromisoformat(value)
            except ValueError as exc:
                raise TypeSystemError(f"bad date literal {value!r}") from exc
        raise TypeSystemError(f"cannot store {value!r} in {self.name}")


@dataclass(frozen=True)
class BooleanType(DataType):
    """SQL BOOLEAN (used only for predicate results, never stored)."""

    _exact = bool

    def _coerce(self, value):
        if isinstance(value, bool):
            return value
        raise TypeSystemError(f"cannot store {value!r} in {self.name}")


INTEGER = IntegerType("INTEGER", TypeFamily.NUMERIC, 4)
DOUBLE = DoubleType("DOUBLE", TypeFamily.NUMERIC, 8)
DATE = DateType("DATE", TypeFamily.DATETIME, 4)
BOOLEAN = BooleanType("BOOLEAN", TypeFamily.BOOLEAN, 1)


def decimal_type(precision: int = 15, scale: int = 2) -> DecimalType:
    """Build a DECIMAL(precision, scale) type descriptor."""
    if precision < 1 or scale < 0 or scale > precision:
        raise TypeSystemError(f"bad DECIMAL({precision},{scale})")
    return DecimalType(
        f"DECIMAL({precision},{scale})",
        TypeFamily.NUMERIC,
        precision // 2 + 1,
        precision,
        scale,
    )


def varchar(max_length: int) -> VarcharType:
    """Build a VARCHAR(max_length) type descriptor."""
    if max_length < 1:
        raise TypeSystemError(f"bad VARCHAR({max_length})")
    # Estimated stored width: assume half-full variable strings.
    return VarcharType(
        f"VARCHAR({max_length})",
        TypeFamily.CHARACTER,
        max(1, max_length // 2),
        max_length,
    )
