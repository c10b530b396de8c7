"""*Reduce Order* — Figure 2 of the paper.

Rewrites an order specification into canonical form:

1. substitute each column with its equivalence-class head;
2. drop every column functionally determined by the columns that precede
   it (constant-bound columns are determined by the empty set, so they
   drop no matter where they appear).

Figure 2 scans the specification backwards testing ``B -> {c_i}`` with
``B`` = all columns preceding ``c_i``. We scan forwards keeping a running
attribute closure of the *retained* prefix; the two formulations remove
exactly the same columns (anything the full prefix determines, the
retained prefix also determines, because dropped columns are themselves
in the retained prefix's closure) and the forward scan lets the closure
grow incrementally — one fixpoint across the whole specification instead
of one per retained key.

Results are memoized per context content (see :mod:`repro.core.memo`):
reduction is a pure function of ``(spec, context content)`` and contexts
are immutable, so entries never invalidate. The reduced form is its own
reduction, so it is seeded into the memo too — re-reducing an already
canonical spec (Test Order does this constantly) is a first-probe hit.

The result is minimal: no retained column is determined by those before
it, which is why the reduced form is also the minimal sort-column list
(Section 4.2).
"""

from __future__ import annotations

from typing import List

from repro.core import memo as memo_module
from repro.core.context import OrderContext
from repro.core.instrument import count
from repro.core.memo import intern_spec
from repro.core.ordering import OrderKey, OrderSpec


def reduce_order(specification: OrderSpec, context: OrderContext) -> OrderSpec:
    """Return the canonical (reduced) form of ``specification``.

    Reduction never changes how the specification orders records of any
    stream on which the context's predicates/FDs hold — see the proof
    sketch in Section 4.1 and the property tests in
    ``tests/core/test_reduce_properties.py``.
    """
    count("reduce.calls")
    if not memo_module.ENABLED:
        return _reduce_order_impl(specification, context)
    memo = context.memo().reduce
    cached = memo.get(specification)
    if cached is not None:
        count("reduce.memo_hits")
        return cached
    result = intern_spec(_reduce_order_impl(specification, context))
    memo[specification] = result
    # The reduced form is a fixed point of reduction; seed it so callers
    # that re-reduce canonical specs hit immediately.
    memo.setdefault(result, result)
    return result


def _reduce_order_impl(
    specification: OrderSpec, context: OrderContext
) -> OrderSpec:
    """Figure 2 proper, on the indexed incremental closure."""
    # Step 1: rewrite onto equivalence-class heads, collapsing duplicates
    # that the rewrite may introduce (x, y with x = y become one column).
    rewritten: List[OrderKey] = []
    seen_columns = set()
    for key in specification:
        head = context.equivalences.head(key.column)
        if head in seen_columns:
            continue
        seen_columns.add(head)
        rewritten.append(key.with_column(head))

    # Step 2: drop keys determined by the retained prefix. The closure
    # starts from the empty set so empty-headed FDs (constants) already
    # apply to the first column; each retained key extends the same
    # closure rather than rebuilding it.
    retained: List[OrderKey] = []
    closure = context.closure(())
    for key in rewritten:
        if key.column in closure:
            continue
        retained.append(key)
        closure.extend(key.column)
        if closure.determines_everything:
            # A key is fully present: every later column is redundant.
            break

    return OrderSpec(retained)


def minimal_sort_columns(
    specification: OrderSpec, context: OrderContext
) -> OrderSpec:
    """The minimal sort-column list for ``specification`` (Section 4.2).

    This is simply the reduced specification; the alias exists because
    callers planning a sort ask a different question ("what do I sort
    on?") than callers testing satisfaction.
    """
    return reduce_order(specification, context)
