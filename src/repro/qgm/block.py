"""The normalized query block the cost-based planner consumes.

After view merging and predicate pushdown, the QGM shapes our dialect
produces collapse to one pipeline:

    join/select core  ->  [GROUP BY]  ->  [HAVING]  ->  projection
                                                        [DISTINCT]
                                                        [ORDER BY]

:class:`QueryBlock` captures that pipeline; :func:`normalize` flattens a
rewritten QGM box tree into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.ordering import OrderSpec
from repro.errors import QgmError
from repro.expr.nodes import Aggregate, ColumnRef, Expression
from repro.qgm.boxes import (
    BaseTableQuantifier,
    Box,
    BoxQuantifier,
    GroupByBox,
    SelectBox,
    SelectItem,
)


@dataclass
class QueryBlock:
    """One plannable query block.

    ``tables`` preserves FROM order (insertion-ordered dict); when
    ``outer_joins`` is non-empty the planner joins in exactly that order
    (outer joins are not freely reorderable).
    """

    tables: Dict[str, str]  # alias -> table name, in FROM order
    predicate: Optional[Expression]
    select_items: List[SelectItem]
    group_columns: List[ColumnRef] = field(default_factory=list)
    aggregates: List[Tuple[str, Aggregate]] = field(default_factory=list)
    having: Optional[Expression] = None
    distinct: bool = False
    order_by: OrderSpec = field(default_factory=OrderSpec)
    # alias -> ON predicate for LEFT OUTER JOINed quantifiers.
    outer_joins: Dict[str, Expression] = field(default_factory=dict)
    fetch_first: Optional[int] = None
    # alias -> unmergeable view box (derived table), planned separately;
    # such aliases also appear in ``tables`` mapped to DERIVED_TABLE.
    derived: Dict[str, Box] = field(default_factory=dict)

    def has_group_by(self) -> bool:
        return bool(self.group_columns) or bool(self.aggregates)

    def null_supplying_aliases(self) -> frozenset:
        return frozenset(self.outer_joins)

    def is_derived(self, alias: str) -> bool:
        return alias in self.derived

    def output_columns(self) -> List[ColumnRef]:
        return [item.output for item in self.select_items]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryBlock(tables={self.tables}, group={self.group_columns}, "
            f"order_by={self.order_by})"
        )


# Sentinel table name for derived-table aliases in QueryBlock.tables.
DERIVED_TABLE = "$derived"


def normalize(root: Box) -> QueryBlock:
    """Flatten a (rewritten) box tree into a :class:`QueryBlock`."""
    order_by = root.output_order
    fetch_first = root.fetch_first
    distinct = False
    having: Optional[Expression] = None
    select_items: List[SelectItem] = list(root.output_items())
    aggregates: List[Tuple[str, Aggregate]] = []
    group_columns: List[ColumnRef] = []

    box: Box = root
    if isinstance(box, SelectBox):
        distinct = box.distinct
        quantifier_list = box.quantifiers()
        is_group_pipeline = (
            len(quantifier_list) == 1
            and isinstance(quantifier_list[0], BoxQuantifier)
            and isinstance(quantifier_list[0].box, GroupByBox)
        )
        if not is_group_pipeline:
            # Plain select block (base tables and/or derived tables).
            tables, derived = _base_tables(box)
            return QueryBlock(
                tables=tables,
                predicate=box.predicate,
                select_items=select_items,
                distinct=distinct,
                order_by=order_by,
                outer_joins=dict(box.outer_joins),
                fetch_first=fetch_first,
                derived=derived,
            )
        # SelectBox over a GroupByBox: HAVING / final projection.
        having = box.predicate
        box = quantifier_list[0].box

    if not isinstance(box, GroupByBox):
        raise QgmError(f"cannot normalize root {root!r}")
    group_box = box
    group_columns = list(group_box.group_columns)
    aggregates = list(group_box.aggregates)
    inner = group_box.quantifier
    if not isinstance(inner, BoxQuantifier) or not isinstance(
        inner.box, SelectBox
    ):
        raise QgmError("GROUP BY box must range over a SELECT box")
    core = inner.box
    if box is root:
        select_items = list(group_box.output_items())
        order_by = group_box.output_order
        fetch_first = group_box.fetch_first
    tables, derived = _base_tables(core)
    return QueryBlock(
        tables=tables,
        predicate=core.predicate,
        select_items=select_items,
        group_columns=group_columns,
        aggregates=aggregates,
        having=having,
        distinct=distinct,
        order_by=order_by,
        outer_joins=dict(core.outer_joins),
        fetch_first=fetch_first,
        derived=derived,
    )


def _base_tables(box: SelectBox) -> Tuple[Dict[str, str], Dict[str, Box]]:
    """(alias -> table name, alias -> derived box) in FROM order."""
    tables: Dict[str, str] = {}
    derived: Dict[str, Box] = {}
    for quantifier in box.quantifiers():
        if isinstance(quantifier, BaseTableQuantifier):
            tables[quantifier.alias] = quantifier.table_name
        elif isinstance(quantifier, BoxQuantifier):
            tables[quantifier.alias] = DERIVED_TABLE
            derived[quantifier.alias] = quantifier.box
        else:
            raise QgmError(
                f"cannot plan quantifier {quantifier.alias!r}"
            )
    return tables, derived
