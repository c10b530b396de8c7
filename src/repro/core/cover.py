"""*Cover Order* — Figure 4 of the paper.

The cover of interesting orders ``I1`` and ``I2`` is an order ``C`` such
that any order property satisfying ``C`` satisfies both. After reduction,
a cover exists iff the shorter order is a prefix of the longer, and the
longer one is the cover.

Combining covers is how one sort comes to serve a merge-join, a GROUP
BY, and an ORDER BY at once (Figure 6 / Section 6). Results (including
the "no cover" outcome) are memoized per context content.
"""

from __future__ import annotations

from typing import Optional

from repro.core import memo as memo_module
from repro.core.context import OrderContext
from repro.core.instrument import count
from repro.core.ordering import OrderSpec
from repro.core.reduce import reduce_order

# Memo miss sentinel: ``None`` is a legitimate cached answer here.
_MISS = object()


def cover_order(
    first: OrderSpec,
    second: OrderSpec,
    context: OrderContext,
) -> Optional[OrderSpec]:
    """The cover of ``first`` and ``second``, or ``None`` if impossible."""
    count("cover.calls")
    if not memo_module.ENABLED:
        return _cover_order_impl(first, second, context)
    memo = context.memo().cover
    key = (first, second)
    cached = memo.get(key, _MISS)
    if cached is not _MISS:
        count("cover.memo_hits")
        return cached
    result = _cover_order_impl(first, second, context)
    memo[key] = result
    return result


def _cover_order_impl(
    first: OrderSpec,
    second: OrderSpec,
    context: OrderContext,
) -> Optional[OrderSpec]:
    """Figure 4 proper."""
    reduced_first = reduce_order(first, context)
    reduced_second = reduce_order(second, context)
    if len(reduced_first) > len(reduced_second):
        reduced_first, reduced_second = reduced_second, reduced_first
    if reduced_first.is_prefix_of(reduced_second):
        return reduced_second
    return None


def cover_order_naive(first: OrderSpec, second: OrderSpec) -> Optional[OrderSpec]:
    """Cover without reduction, for the order-opt-disabled baseline."""
    shorter, longer = first, second
    if len(shorter) > len(longer):
        shorter, longer = longer, shorter
    if shorter.is_prefix_of(longer):
        return longer
    return None
