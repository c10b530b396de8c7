"""*Homogenize Order* — Figure 5 of the paper.

When an interesting order is pushed down (to one side of a join, into a
view, ...), its columns must be re-expressed in the target context's
columns. Equivalence classes license the substitution: ``(a.x, b.y)``
homogenizes to table ``b`` as ``(b.x, b.y)`` when ``a.x = b.x``.

Unlike reduction, homogenization may pick *any* class member (not just
the head), and may use equivalences from predicates that have not been
applied yet — it is about producing an order that will *eventually*
satisfy the original (Section 4.4).

Both entry points memoize per context content on ``(spec, frozenset of
target columns)`` — join enumeration homogenizes the same interesting
orders against the same table column sets for every plan of every DP
subset containing the table.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Set

from repro.core.context import OrderContext
from repro.core.instrument import count
from repro.core.memo import intern_spec
from repro.core.ordering import OrderKey, OrderSpec
from repro.core.reduce import reduce_order
from repro.expr.nodes import ColumnRef

# Memo miss sentinel: ``None`` is a legitimate cached answer for
# homogenize_order.
_MISS = object()


def _substitute_key(
    key: OrderKey,
    targets: Set[ColumnRef],
    context: OrderContext,
) -> Optional[OrderKey]:
    if key.column in targets:
        return key
    candidates = [
        member
        for member in context.equivalences.members(key.column)
        if member in targets
    ]
    if candidates:
        # Deterministic pick keeps plans stable across runs.
        chosen = min(candidates, key=lambda c: (c.qualifier, c.name))
        return key.with_column(chosen)
    return None


def homogenize_order(
    specification: OrderSpec,
    target_columns: Iterable[ColumnRef],
    context: OrderContext,
) -> Optional[OrderSpec]:
    """``specification`` re-expressed on ``target_columns``; None if impossible.

    The specification is reduced first (Figure 5 line 1), so columns made
    redundant by FDs do not block homogenization — the paper's example
    where ``{a.x} -> {b.y}`` lets ``(a.x, b.y)`` push down to table ``a``.
    """
    count("homogenize.calls")
    targets = (
        target_columns
        if isinstance(target_columns, frozenset)
        else frozenset(target_columns)
    )
    memo = context.memo().homogenize
    key = (specification, targets)
    cached = memo.get(key, _MISS)
    if cached is not _MISS:
        count("homogenize.memo_hits")
        return cached
    result = _homogenize_order_impl(specification, targets, context)
    if result is not None:
        result = intern_spec(result)
    memo[key] = result
    return result


def _homogenize_order_impl(
    specification: OrderSpec,
    targets: Set[ColumnRef],
    context: OrderContext,
) -> Optional[OrderSpec]:
    """Figure 5 proper."""
    reduced = reduce_order(specification, context)
    substituted: List[OrderKey] = []
    seen: Set[ColumnRef] = set()
    for key in reduced:
        replacement = _substitute_key(key, targets, context)
        if replacement is None:
            return None
        if replacement.column in seen:
            continue
        seen.add(replacement.column)
        substituted.append(replacement)
    return OrderSpec(substituted)


def homogenize_prefix(
    specification: OrderSpec,
    target_columns: Iterable[ColumnRef],
    context: OrderContext,
) -> OrderSpec:
    """The largest homogenizable prefix of ``specification``.

    Used by the order scan (Section 5.1): when a full homogenization is
    impossible, the scan optimistically pushes down the largest prefix in
    the hope that an FD discovered during planning makes the suffix
    redundant. The result may be empty.
    """
    count("homogenize.calls")
    targets = (
        target_columns
        if isinstance(target_columns, frozenset)
        else frozenset(target_columns)
    )
    memo = context.memo().prefix
    key = (specification, targets)
    cached = memo.get(key)
    if cached is not None:
        count("homogenize.memo_hits")
        return cached
    result = intern_spec(_homogenize_prefix_impl(specification, targets, context))
    memo[key] = result
    return result


def _homogenize_prefix_impl(
    specification: OrderSpec,
    targets: Set[ColumnRef],
    context: OrderContext,
) -> OrderSpec:
    reduced = reduce_order(specification, context)
    substituted: List[OrderKey] = []
    seen: Set[ColumnRef] = set()
    for key in reduced:
        replacement = _substitute_key(key, targets, context)
        if replacement is None:
            break
        if replacement.column in seen:
            continue
        seen.add(replacement.column)
        substituted.append(replacement)
    return OrderSpec(substituted)
