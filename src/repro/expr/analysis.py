"""Predicate analysis for order optimization.

The paper's reduction algorithm feeds on two kinds of facts mined from
applied predicates:

* ``col = constant`` — makes ``col`` constant-bound, i.e. the empty-headed
  FD ``{} -> {col}``;
* ``col = col`` — merges the two columns' equivalence classes and yields
  FDs in both directions.

This module extracts those facts from arbitrary predicate expressions.
Only facts from top-level conjuncts are safe (a disjunct's equality does
not hold for every surviving record), so extraction walks AND-trees only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.expr.nodes import (
    BooleanExpr,
    BooleanOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    Literal,
    Parameter,
)


def conjuncts_of(predicate: Optional[Expression]) -> List[Expression]:
    """Flatten a predicate into its top-level AND conjuncts.

    ``None`` (no predicate) flattens to the empty list. Nested ANDs are
    recursively flattened; anything else (including ORs) stays whole.
    """
    if predicate is None:
        return []
    if isinstance(predicate, BooleanExpr) and predicate.op is BooleanOp.AND:
        flattened: List[Expression] = []
        for operand in predicate.operands:
            flattened.extend(conjuncts_of(operand))
        return flattened
    return [predicate]


def columns_of(expression: Expression) -> FrozenSet[ColumnRef]:
    """Every column referenced anywhere inside ``expression``."""
    found: Set[ColumnRef] = set()
    _collect_columns(expression, found)
    return frozenset(found)


def _collect_columns(expression: Expression, found: Set[ColumnRef]) -> None:
    if isinstance(expression, ColumnRef):
        found.add(expression)
        return
    for child in expression.children():
        _collect_columns(child, found)


def is_column_constant_equality(
    predicate: Expression,
) -> Optional[Tuple[ColumnRef, Literal]]:
    """Match ``col = literal`` (either operand order); else ``None``.

    NULL literals do not qualify: ``col = NULL`` never evaluates true, so
    it binds nothing.
    """
    if not isinstance(predicate, Comparison) or predicate.op is not ComparisonOp.EQ:
        return None
    left, right = predicate.left, predicate.right
    if isinstance(left, ColumnRef) and isinstance(right, Literal):
        column, literal = left, right
    elif isinstance(right, ColumnRef) and isinstance(left, Literal):
        column, literal = right, left
    else:
        return None
    if literal.value is None:
        return None
    return column, literal


def is_column_parameter_equality(
    predicate: Expression,
) -> Optional[Tuple[ColumnRef, Parameter]]:
    """Match ``col = :param`` (either operand order); else ``None``.

    The paper (§4.1) counts host variables as constants: the binding is
    order-relevant (empty-headed FD) even though the value is unknown
    until execution.
    """
    if not isinstance(predicate, Comparison) or predicate.op is not ComparisonOp.EQ:
        return None
    left, right = predicate.left, predicate.right
    if isinstance(left, ColumnRef) and isinstance(right, Parameter):
        return left, right
    if isinstance(right, ColumnRef) and isinstance(left, Parameter):
        return right, left
    return None


def is_column_equality(
    predicate: Expression,
) -> Optional[Tuple[ColumnRef, ColumnRef]]:
    """Match ``col = col`` between two *distinct* columns; else ``None``."""
    if not isinstance(predicate, Comparison) or predicate.op is not ComparisonOp.EQ:
        return None
    left, right = predicate.left, predicate.right
    if (
        isinstance(left, ColumnRef)
        and isinstance(right, ColumnRef)
        and left != right
    ):
        return left, right
    return None


@dataclass
class PredicateFacts:
    """Facts mined from a set of applied predicates.

    Attributes:
        conjuncts: every top-level conjunct seen.
        constant_bindings: columns bound to a single constant; the value
            is the Literal, or ``None`` when bound to a host variable
            (value unknown until execution, §4.1).
        equalities: raw ``col = col`` pairs (pre-union-find).
        residual: conjuncts that contributed no order-relevant fact.
    """

    conjuncts: List[Expression] = field(default_factory=list)
    constant_bindings: Dict[ColumnRef, Optional[Literal]] = field(
        default_factory=dict
    )
    equalities: List[Tuple[ColumnRef, ColumnRef]] = field(default_factory=list)
    residual: List[Expression] = field(default_factory=list)


def analyze_predicates(predicates: Iterable[Expression]) -> PredicateFacts:
    """Mine constant bindings and column equalities from ``predicates``.

    Each element of ``predicates`` is treated as an applied (conjunctive)
    predicate; nested ANDs are flattened first.
    """
    facts = PredicateFacts()
    for predicate in predicates:
        for conjunct in conjuncts_of(predicate):
            facts.conjuncts.append(conjunct)
            bound = is_column_constant_equality(conjunct)
            if bound is not None:
                column, literal = bound
                facts.constant_bindings.setdefault(column, literal)
                continue
            parameter_bound = is_column_parameter_equality(conjunct)
            if parameter_bound is not None:
                # Host variables are constants for order purposes (§4.1)
                # even though their value arrives at execution time.
                column, _parameter = parameter_bound
                facts.constant_bindings.setdefault(column, None)
                continue
            pair = is_column_equality(conjunct)
            if pair is not None:
                facts.equalities.append(pair)
                continue
            facts.residual.append(conjunct)
    return facts
