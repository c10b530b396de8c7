"""Config-aware wrappers over the core order operations.

With ``order_optimization`` off these degrade to the naive behaviour the
paper's disabled DB2 build exhibits: literal column-list prefix tests, no
reduction, no minimal sort columns.
"""

from __future__ import annotations

from typing import List

from repro.core.context import OrderContext
from repro.core.general import GeneralOrderSpec
from repro.core.ordering import OrderSpec
from repro.core.reduce import reduce_order
from repro.core.test import test_order, test_order_naive
from repro.optimizer.config import OptimizerConfig


def order_satisfies(
    config: OptimizerConfig,
    interesting: OrderSpec,
    order_property: OrderSpec,
    context: OrderContext,
) -> bool:
    """Does ``order_property`` satisfy ``interesting``? (Figure 3 / naive)"""
    if config.effective("enable_reduction"):
        return test_order(interesting, order_property, context)
    return test_order_naive(interesting, order_property)


def sort_columns_for(
    config: OptimizerConfig,
    interesting: OrderSpec,
    context: OrderContext,
) -> OrderSpec:
    """Sort columns needed to satisfy ``interesting`` (minimal when on)."""
    if config.effective("enable_reduction"):
        return reduce_order(interesting, context)
    return interesting


def satisfied_prefix_length(
    config: OptimizerConfig,
    target: OrderSpec,
    order_property: OrderSpec,
    context: OrderContext,
) -> int:
    """Longest *proper* prefix of ``target`` already satisfied.

    Capped at ``len(target) - 1`` so a nonzero result always leaves a
    suffix to enforce — callers that see the whole target satisfied
    should not be sorting at all. FDs/constants in ``context`` can
    lengthen the usable prefix beyond a literal column match.
    """
    for length in range(len(target) - 1, 0, -1):
        if order_satisfies(config, target.prefix(length), order_property, context):
            return length
    return 0


def general_satisfies(
    config: OptimizerConfig,
    general: GeneralOrderSpec,
    order_property: OrderSpec,
    context: OrderContext,
    written: OrderSpec,
) -> bool:
    """Degrees-of-freedom satisfaction (Section 7), or the written order."""
    if config.effective("enable_general_orders"):
        return general.satisfied_by(order_property, context)
    return order_satisfies(config, written, order_property, context)


def general_sort_targets(
    config: OptimizerConfig,
    general: GeneralOrderSpec,
    context: OrderContext,
    order_by: OrderSpec,
    written: OrderSpec,
) -> List[OrderSpec]:
    """Sort orders establishing a GROUP BY or DISTINCT requirement.

    With general orders on: the order aligned with the ORDER BY (one
    sort serves both, the Cover Order payoff), then the minimal concrete
    order. With them off, or when everything reduced away: the written
    column list.
    """
    targets: List[OrderSpec] = []
    if config.effective("enable_general_orders"):
        if config.effective("enable_cover") and not order_by.is_empty():
            aligned = general.aligned_with(order_by, context)
            if aligned is not None and not aligned.is_empty():
                targets.append(aligned)
        minimal = general.concrete(context)
        if not minimal.is_empty() and minimal not in targets:
            targets.append(minimal)
    return targets or [written]
