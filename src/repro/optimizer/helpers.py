"""Config-aware wrappers over the core order operations.

With ``order_optimization`` off these degrade to the naive behaviour the
paper's disabled DB2 build exhibits: literal column-list prefix tests, no
reduction, no minimal sort columns.
"""

from __future__ import annotations

from typing import Optional

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
) -> bool:
    """Degrees-of-freedom satisfaction (Section 7), or the rigid check."""
    if config.effective("enable_general_orders"):
        return general.satisfied_by(order_property, context)
    rigid = _rigid_spec(general)
    return order_satisfies(config, rigid, order_property, context)


def general_sort_target(
    config: OptimizerConfig,
    general: GeneralOrderSpec,
    context: OrderContext,
    hint: Optional[OrderSpec] = None,
) -> OrderSpec:
    """The sort order to enforce for a general requirement."""
    if config.effective("enable_general_orders"):
        return general.concrete(context, hint=hint)
    return _rigid_spec(general)


def _rigid_spec(general: GeneralOrderSpec) -> OrderSpec:
    """The general order collapsed to its written column sequence."""
    from repro.core.ordering import OrderKey

    keys = []
    for segment in general.segments:
        if segment.is_fixed:
            keys.append(segment.fixed_key)
        else:
            for column in sorted(
                segment.columns, key=lambda c: (c.qualifier, c.name)
            ):
                keys.append(OrderKey(column))
    return OrderSpec(keys)
