"""*Test Order* — Figure 3 of the paper.

An order property ``OP`` satisfies an interesting order ``I`` iff, after
both are reduced, ``I`` is empty or ``I`` is a prefix of ``OP``.

This is the algebra's hottest entry point: join enumeration calls it for
every dominance comparison between candidate plans. Results are memoized
per context content on the ``(interesting, property)`` pair, and an
interesting order that reduces to empty short-circuits without touching
the property at all.
"""

from __future__ import annotations

from repro.core import memo as memo_module
from repro.core.context import OrderContext
from repro.core.instrument import count
from repro.core.ordering import OrderSpec
from repro.core.reduce import reduce_order


def test_order(
    interesting: OrderSpec,
    order_property: OrderSpec,
    context: OrderContext,
) -> bool:
    """Whether ``order_property`` satisfies ``interesting`` under ``context``."""
    count("test.calls")
    if not memo_module.ENABLED:
        return _test_order_impl(interesting, order_property, context)
    memo = context.memo().test
    key = (interesting, order_property)
    cached = memo.get(key)
    if cached is not None:
        count("test.memo_hits")
        return cached
    result = _test_order_impl(interesting, order_property, context)
    memo[key] = result
    return result


def _test_order_impl(
    interesting: OrderSpec,
    order_property: OrderSpec,
    context: OrderContext,
) -> bool:
    """Figure 3 proper (the reductions themselves may be memo hits)."""
    reduced_interesting = reduce_order(interesting, context)
    if reduced_interesting.is_empty():
        # Single-reduction fast path: an empty requirement is satisfied
        # by anything; no need to reduce the property.
        return True
    reduced_property = reduce_order(order_property, context)
    return reduced_interesting.is_prefix_of(reduced_property)


def test_order_naive(interesting: OrderSpec, order_property: OrderSpec) -> bool:
    """The naive satisfaction test used by the order-opt-disabled build.

    No reduction: the interesting order must literally be a prefix of the
    property. This is what the paper's "disabled" DB2 falls back to and is
    the baseline in the Table 1 experiment. Deliberately untouched by the
    memoization layer — the disabled baseline must stay honest.
    """
    if interesting.is_empty():
        return True
    return interesting.is_prefix_of(order_property)
