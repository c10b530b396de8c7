"""The order scan (Section 5.1): generate interesting orders top-down.

Before cost-based planning, interesting orders arising from ORDER BY,
GROUP BY, and DISTINCT are pushed down to the join box, homogenized and
covered along the way, to become sort-ahead candidates. The scan is
*optimistic*: it assumes every predicate below a box has been applied
(so all equivalence classes and key FDs are usable), and when full
homogenization fails it keeps the largest homogenizable prefix hoping an
FD discovered during planning makes the suffix redundant.
"""

from __future__ import annotations

from typing import List

from repro.core.general import GeneralOrderSpec
from repro.core.homogenize import homogenize_prefix
from repro.core.ordering import OrderSpec
from repro.core.reduce import reduce_order
from repro.optimizer.planner import PlannerContext

# Interesting orders a block keeps as sort-ahead candidates.
MAX_SORT_AHEAD_ORDERS = 4


def run_order_scan(planner: PlannerContext) -> List[OrderSpec]:
    """Interesting (sort-ahead) orders for the block's join box."""
    if not planner.config.effective("enable_sort_ahead"):
        return []
    block = planner.block
    optimistic = planner.optimistic
    # Frozen once: homogenization memo keys include the target column
    # set, so every push below probes the same table.
    base_columns = frozenset(
        column for alias in block.tables for column in planner.alias_columns(alias)
    )
    candidates: List[OrderSpec] = []

    def push(specification: OrderSpec) -> None:
        """Homogenize to base columns, reduce, and collect."""
        if specification.is_empty():
            return
        pushed = homogenize_prefix(specification, base_columns, optimistic)
        if pushed.is_empty():
            return
        reduced = reduce_order(pushed, optimistic)
        if not reduced.is_empty() and reduced not in candidates:
            candidates.append(reduced)

    if block.has_group_by() and block.group_columns:
        general = GeneralOrderSpec.from_group_by(block.group_columns)
        if planner.config.effective("enable_cover") and not block.order_by.is_empty():
            aligned = general.aligned_with(block.order_by, optimistic)
            if aligned is not None:
                push(aligned)
        push(general.concrete(optimistic))
    if block.distinct:
        outputs = [
            item.output
            for item in block.select_items
            if item.output.qualifier  # base columns only
        ]
        if outputs:
            general = GeneralOrderSpec.from_distinct(outputs)
            if planner.config.effective("enable_cover") and not block.order_by.is_empty():
                aligned = general.aligned_with(block.order_by, optimistic)
                if aligned is not None:
                    push(aligned)
            push(general.concrete(optimistic, hint=block.order_by))
    if not block.has_group_by() and not block.order_by.is_empty():
        push(block.order_by)

    # Stage 3 of the scan (§5.1): interesting orders for merge joins —
    # each equi-join column is a candidate; reduction collapses the two
    # sides of a class onto one head.
    from repro.expr.analysis import is_column_equality

    for predicate, _aliases in planner.join_predicates:
        pair = is_column_equality(predicate)
        if pair is not None:
            push(OrderSpec.of(pair[0]))

    return candidates[:MAX_SORT_AHEAD_ORDERS]
