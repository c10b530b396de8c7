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
    if context.ods.is_empty():
        return reduced_interesting.is_prefix_of(reduced_property)
    return _od_prefix(reduced_interesting, reduced_property, context)


def _od_prefix(
    interesting: OrderSpec,
    order_property: OrderSpec,
    context: OrderContext,
) -> bool:
    """Positional prefix test generalized over order dependencies.

    ``interesting`` key ``i_k`` is covered by property key ``p_k`` when
    they match exactly, or when the OD closure orders ``i_k``'s column
    by ``p_k``'s with the right flip (ascending by ``p_k`` must move
    ``i_k`` in its requested direction). For *non-final* positions the
    FD ``{i_k} -> {p_k}`` must additionally hold: if distinct ``p_k``
    values can share an ``i_k`` value, rows tied on ``i_k`` span several
    ``p_k`` runs and nothing orders ``i_{k+1}`` within the tie —
    ``(year(d), x)`` is NOT satisfied by ``(d, x)`` even though
    ``(year(d))`` alone is. With no ODs in the context this degenerates
    to exact prefix matching.
    """
    ikeys = list(interesting)
    pkeys = list(order_property)
    if len(ikeys) > len(pkeys):
        return False
    ods = context.ods
    last = len(ikeys) - 1
    for position, ikey in enumerate(ikeys):
        pkey = pkeys[position]
        if pkey == ikey:
            continue
        if pkey.column == ikey.column:
            return False  # same column, opposite direction
        flip_needed = ikey.direction != pkey.direction
        if not ods.orders(pkey.column, ikey.column, flip_needed):
            return False
        if position < last and pkey.column not in context.closure(
            (ikey.column,)
        ):
            return False
    return True


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
