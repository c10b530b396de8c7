"""Naive reference implementations of the order algebra.

These are the seed's algorithms, kept callable on purpose:

* :func:`naive_closure` is the textbook while-something-changed
  attribute closure [Beeri & Bernstein '79] with *no* head index, *no*
  incrementality, and *no* equivalence consultation — equivalences must
  be materialized as pairwise FDs first, which is what
  :meth:`OrderContext.materialized_fds` provides;
* the four ``*_reference`` operations run Figures 2-5 on that closure
  with no memoization whatsoever.

They exist as an oracle: the metamorphic tests
(``tests/core/test_memo_metamorphic.py``) pin the indexed, memoized
front doors against these on randomized contexts and specifications.
They are deliberately slow; nothing on a planning path imports them.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.core.context import OrderContext
from repro.core.fd import ALL_COLUMNS, FDSet
from repro.core.ordering import OrderKey, OrderSpec
from repro.expr.nodes import ColumnRef


def naive_closure(
    columns: Iterable[ColumnRef], fds: FDSet
) -> Tuple[FrozenSet[ColumnRef], bool]:
    """The textbook attribute closure of ``columns`` under ``fds``.

    Returns ``(closed set, determines_everything)``. Loops over every
    dependency until nothing changes — the formulation the indexed
    closure replaces.
    """
    closed: Set[ColumnRef] = set(columns)
    changed = True
    while changed:
        changed = False
        for dependency in fds:
            if not dependency.head <= closed:
                continue
            if dependency.tail is ALL_COLUMNS:
                return frozenset(closed), True
            if not dependency.tail <= closed:
                closed |= dependency.tail
                changed = True
    return frozenset(closed), False


def reduce_order_reference(
    specification: OrderSpec, context: OrderContext
) -> OrderSpec:
    """Figure 2 on the naive closure over materialized FDs."""
    fds = context.materialized_fds()

    rewritten: List[OrderKey] = []
    seen_columns: Set[ColumnRef] = set()
    for key in specification:
        head = context.equivalences.head(key.column)
        if head in seen_columns:
            continue
        seen_columns.add(head)
        rewritten.append(key.with_column(head))

    retained: List[OrderKey] = []
    for key in rewritten:
        closed, everything = naive_closure(
            (retained_key.column for retained_key in retained), fds
        )
        if everything:
            break
        if key.column in closed:
            continue
        retained.append(key)
    return OrderSpec(retained)


def test_order_reference(
    interesting: OrderSpec,
    order_property: OrderSpec,
    context: OrderContext,
) -> bool:
    """Figure 3 on the reference reduction."""
    reduced_interesting = reduce_order_reference(interesting, context)
    if reduced_interesting.is_empty():
        return True
    reduced_property = reduce_order_reference(order_property, context)
    return reduced_interesting.is_prefix_of(reduced_property)


def cover_order_reference(
    first: OrderSpec,
    second: OrderSpec,
    context: OrderContext,
) -> Optional[OrderSpec]:
    """Figure 4 on the reference reduction."""
    reduced_first = reduce_order_reference(first, context)
    reduced_second = reduce_order_reference(second, context)
    if len(reduced_first) > len(reduced_second):
        reduced_first, reduced_second = reduced_second, reduced_first
    if reduced_first.is_prefix_of(reduced_second):
        return reduced_second
    return None


def homogenize_order_reference(
    specification: OrderSpec,
    target_columns: Iterable[ColumnRef],
    context: OrderContext,
) -> Optional[OrderSpec]:
    """Figure 5 on the reference reduction."""
    targets = set(target_columns)
    reduced = reduce_order_reference(specification, context)
    substituted: List[OrderKey] = []
    seen: Set[ColumnRef] = set()
    for key in reduced:
        if key.column in targets:
            replacement = key
        else:
            candidates = [
                member
                for member in context.equivalences.members(key.column)
                if member in targets
            ]
            if not candidates:
                return None
            chosen = min(candidates, key=lambda c: (c.qualifier, c.name))
            replacement = key.with_column(chosen)
        if replacement.column in seen:
            continue
        seen.add(replacement.column)
        substituted.append(replacement)
    return OrderSpec(substituted)
