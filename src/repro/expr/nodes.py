"""Expression tree node definitions.

All nodes are frozen dataclasses, so expressions are hashable and can be
used as dict keys (the optimizer keeps predicate sets and column maps).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.errors import ExpressionError


@dataclass(frozen=True)
class Expression:
    """Abstract base for every expression node."""

    def children(self) -> Tuple["Expression", ...]:
        """Immediate sub-expressions, for generic tree walks."""
        return ()

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        return repr(self)


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A reference to ``qualifier.name`` (qualifier = table alias).

    Column identity throughout the engine is this pair; two plans talking
    about ``o.orderkey`` agree because the frozen dataclass hashes by
    value.
    """

    qualifier: str
    name: str

    def __str__(self) -> str:
        return f"{self.qualifier}.{self.name}"


@dataclass(frozen=True)
class Literal(Expression):
    """A constant. ``value is None`` encodes SQL NULL.

    Equality includes the value's type and ``repr``: ``1``, ``1.0``,
    ``Decimal('1.0')``, ``Decimal('1.00')`` and ``True`` are equal
    Python values but constants of different result types or scales,
    so expressions (and the kernels and aggregate slots keyed by them)
    that differ only there stay distinct. The hash stays the
    dataclass's, over the value alone.
    """

    value: Any

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        a, b = self.value, other.value
        return (type(a), a, repr(a)) == (type(b), b, repr(b))

    def __str__(self) -> str:
        if self.value is None:
            return "NULL"
        if isinstance(self.value, str):
            return "'" + self.value.replace("'", "''") + "'"
        return str(self.value)


@dataclass(frozen=True)
class Parameter(Expression):
    """A host variable (``:name`` in SQL text).

    The paper (§4.1): "a literal expression, host variable, or
    correlated column qualify as a constant" — so ``col = :param``
    contributes the empty-headed FD ``{} -> {col}`` during planning even
    though the value is only known at execution time.
    """

    name: str

    def __str__(self) -> str:
        return f":{self.name}"


class ComparisonOp(enum.Enum):
    """Binary comparison operators."""

    EQ = "="
    NE = "<>"
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flipped(self) -> "ComparisonOp":
        """The operator with its operands swapped (x < y  ==  y > x)."""
        return _FLIPPED[self]

    def negated(self) -> "ComparisonOp":
        """The logical complement (NOT x < y  ==  x >= y)."""
        return _NEGATED[self]


_FLIPPED = {
    ComparisonOp.EQ: ComparisonOp.EQ,
    ComparisonOp.NE: ComparisonOp.NE,
    ComparisonOp.LT: ComparisonOp.GT,
    ComparisonOp.LE: ComparisonOp.GE,
    ComparisonOp.GT: ComparisonOp.LT,
    ComparisonOp.GE: ComparisonOp.LE,
}

_NEGATED = {
    ComparisonOp.EQ: ComparisonOp.NE,
    ComparisonOp.NE: ComparisonOp.EQ,
    ComparisonOp.LT: ComparisonOp.GE,
    ComparisonOp.LE: ComparisonOp.GT,
    ComparisonOp.GT: ComparisonOp.LE,
    ComparisonOp.GE: ComparisonOp.LT,
}


@dataclass(frozen=True)
class Comparison(Expression):
    """``left <op> right`` under three-valued logic."""

    op: ComparisonOp
    left: Expression
    right: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"


class BooleanOp(enum.Enum):
    """N-ary boolean connectives."""

    AND = "AND"
    OR = "OR"


@dataclass(frozen=True)
class BooleanExpr(Expression):
    """AND/OR over two or more operands."""

    op: BooleanOp
    operands: Tuple[Expression, ...]

    def __post_init__(self):
        if len(self.operands) < 2:
            raise ExpressionError(f"{self.op.value} needs >= 2 operands")

    def children(self) -> Tuple[Expression, ...]:
        return self.operands

    def __str__(self) -> str:
        joiner = f" {self.op.value} "
        return "(" + joiner.join(str(operand) for operand in self.operands) + ")"


@dataclass(frozen=True)
class Not(Expression):
    """Logical negation."""

    operand: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"NOT ({self.operand})"


@dataclass(frozen=True)
class IsNull(Expression):
    """``operand IS [NOT] NULL`` — the only NULL-seeing predicate."""

    operand: Expression
    negated: bool = False

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        suffix = "IS NOT NULL" if self.negated else "IS NULL"
        return f"{self.operand} {suffix}"


@dataclass(frozen=True)
class InList(Expression):
    """``operand IN (v1, v2, ...)`` over literal values."""

    operand: Expression
    values: Tuple[Expression, ...]

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,) + self.values

    def __str__(self) -> str:
        inner = ", ".join(str(value) for value in self.values)
        return f"{self.operand} IN ({inner})"


class ArithmeticOp(enum.Enum):
    """Binary arithmetic operators."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(frozen=True)
class Arithmetic(Expression):
    """``left <op> right`` arithmetic; NULL-propagating."""

    op: ArithmeticOp
    left: Expression
    right: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op.value} {self.right})"


@dataclass(frozen=True)
class DatePart(Expression):
    """``year(d)`` / ``month(d)`` / ``day(d)`` extraction from a date."""

    part: str  # "year" | "month" | "day"
    operand: Expression

    def __post_init__(self):
        if self.part not in ("year", "month", "day"):
            raise ExpressionError(f"unknown date part {self.part!r}")

    def children(self) -> Tuple[Expression, ...]:
        return (self.operand,)

    def __str__(self) -> str:
        return f"{self.part}({self.operand})"


@dataclass(frozen=True)
class CaseWhen(Expression):
    """``CASE WHEN cond THEN a ELSE b END`` (single-branch form)."""

    condition: Expression
    then_value: Expression
    else_value: Expression

    def children(self) -> Tuple[Expression, ...]:
        return (self.condition, self.then_value, self.else_value)

    def __str__(self) -> str:
        return (
            f"CASE WHEN {self.condition} THEN {self.then_value} "
            f"ELSE {self.else_value} END"
        )


class AggregateKind(enum.Enum):
    """Supported aggregate functions."""

    SUM = "SUM"
    COUNT = "COUNT"
    MIN = "MIN"
    MAX = "MAX"
    AVG = "AVG"


@dataclass(frozen=True)
class Aggregate(Expression):
    """An aggregate call; ``argument is None`` means ``COUNT(*)``."""

    kind: AggregateKind
    argument: Optional[Expression] = None
    distinct: bool = False
    alias: Optional[str] = field(default=None, compare=False)

    def __post_init__(self):
        if self.argument is None and self.kind is not AggregateKind.COUNT:
            raise ExpressionError(f"{self.kind.value} requires an argument")

    def children(self) -> Tuple[Expression, ...]:
        if self.argument is None:
            return ()
        return (self.argument,)

    def __str__(self) -> str:
        inner = "*" if self.argument is None else str(self.argument)
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.kind.value}({prefix}{inner})"


def col(qualifier: str, name: str) -> ColumnRef:
    """Shorthand constructor: ``col("a", "x")`` is ``a.x``."""
    return ColumnRef(qualifier, name)


def lit(value: Any) -> Literal:
    """Shorthand constructor for a literal."""
    return Literal(value)
