"""Bottom-up join enumeration with interesting orders and sort-ahead.

System-R style dynamic programming over quantifier subsets, left-deep
trees, with the paper's twist (Section 5.2): at every level, for each
interesting order hung off the block, the optimizer also tries *sorting
the outer* on that order (homogenized to the columns available so far) —
so a sort for an ORDER BY / GROUP BY can land arbitrarily deep. Two
subplans over the same tables but with different (useful) orders are not
pruned against each other, which is the O(n^2) complexity factor the
paper concedes.

Candidates are priced before they are built. A join method's cost is
arithmetic over its inputs' costs and cardinalities and its order is
its outer input's order, so each method returns a :class:`Candidate`
carrying only those two; :func:`_prune` drops a candidate whose order
is a literal prefix of a cheaper survivor's without ever running
``propagate_join`` or making a ``PlanNode`` for it, and builds the rest
to ask Test Order under their own context. An inner's order is paid
for only where a merge join can use it: nested-loop and hash join price
one inner plan per order-blind class (:func:`_join_methods`).
"""

from __future__ import annotations

from functools import partial, wraps
from itertools import combinations
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.ordering import OrderSpec
from repro.core.reduce import reduce_order
from repro.cost.model import Cost
from repro.errors import OptimizerError
from repro.expr.analysis import columns_of, conjuncts_of, is_column_equality
from repro.expr.nodes import BooleanExpr, BooleanOp, ColumnRef, Expression
from repro.optimizer.helpers import (
    order_satisfies,
    satisfied_prefix_length,
    sort_columns_for,
)
from repro.optimizer.order_scan import MAX_SORT_AHEAD_ORDERS
from repro.optimizer.plan import OpKind, PlanNode
from repro.optimizer.planner import (
    PlannerContext,
    _apply_filters,
    _table_scan_plan,
    access_paths,
)
from repro.properties.propagate import (
    base_table_properties,
    propagate_join,
    propagate_left_outer_join,
    propagate_sort,
)
from repro.properties.stream import StreamProperties

AliasSet = FrozenSet[str]

# Cap on plans kept per DP subset after dominance pruning.
_MAX_PLANS_PER_SUBSET = 12


def _and_all(conjuncts: Sequence[Expression]) -> Optional[Expression]:
    if not conjuncts:
        return None
    if len(conjuncts) == 1:
        return conjuncts[0]
    return BooleanExpr(BooleanOp.AND, tuple(conjuncts))


class Candidate:
    """One alternative for a DP subset: its cost and order now, its
    ``PlanNode`` (and the property propagation behind it) on first use."""

    __slots__ = ("cost", "order", "_build", "_node")

    def __init__(self, cost, order, build=None, node=None):
        self.cost: Cost = cost
        self.order: OrderSpec = order
        self._build: Optional[Callable[[], PlanNode]] = build
        self._node: Optional[PlanNode] = node

    def node(self) -> PlanNode:
        if self._node is None:
            self._node = self._build()
        return self._node


def _built(nodes: Sequence[PlanNode]) -> List[Candidate]:
    """Candidates for plans that exist already (access paths, sorts)."""
    return [Candidate(node.cost, node.order, node=node) for node in nodes]


def _once_per_plan(function):
    """Memoize ``function(planner, plan, order, reason)`` on the planner.

    Merge join asks for the same sorted input once per join partner;
    the answer depends on the input plan alone. Keyed by plan identity;
    the entry holds ``plan`` so its id() cannot be reused meanwhile.
    """

    @wraps(function)
    def memoized(planner, plan, order, reason):
        key = (function, id(plan), order, reason)
        entry = planner.per_plan_memo.get(key)
        if entry is None:
            entry = (plan, function(planner, plan, order, reason))
            planner.per_plan_memo[key] = entry
        return entry[1]

    return memoized


def _join_candidate(
    kind: OpKind,
    children: Tuple[PlanNode, ...],
    inner: StreamProperties,
    predicates: Sequence[Expression],
    output_rows: float,
    cost: Cost,
    args: dict,
) -> Candidate:
    """A join of ``children[0]`` (whose order every method here keeps)
    with a stream of ``inner`` properties; ``args["left_outer"]``
    selects the outer-join propagation rule."""
    outer = children[0]

    def build() -> PlanNode:
        if args.get("left_outer"):
            properties = propagate_left_outer_join(
                outer.properties, inner, predicates, output_rows
            )
        else:
            properties = propagate_join(
                outer.properties, inner, predicates, output_rows, True
            )
        return PlanNode(kind, children, properties, cost, args)

    return Candidate(cost, outer.order, build)


def enumerate_joins(planner: PlannerContext) -> List[PlanNode]:
    """Plan the join of every quantifier in the block; returns the
    surviving plans for the full alias set.

    Blocks containing LEFT OUTER JOINs are planned in FROM order (outer
    joins are not freely reorderable); pure inner-join blocks get full
    subset dynamic programming.
    """
    if planner.block.outer_joins:
        return _enumerate_sequential(planner)
    aliases = sorted(planner.block.tables)
    best: Dict[AliasSet, List[PlanNode]] = {}
    for alias in aliases:
        candidates = _built(access_paths(planner, alias))
        candidates.extend(_sort_ahead_variants(planner, candidates))
        best[frozenset((alias,))] = _prune(planner, candidates)

    universe = frozenset(aliases)
    for size in range(2, len(aliases) + 1):
        for subset_tuple in combinations(aliases, size):
            subset = frozenset(subset_tuple)
            planner.stats.subsets_expanded += 1
            candidates: List[Candidate] = []
            for inner_alias in subset:
                outer_set = subset - {inner_alias}
                outer_plans = best.get(outer_set, ())
                if not outer_plans:
                    continue
                if not _connected(planner, outer_set, inner_alias) and any(
                    _connected(planner, subset - {alias}, alias)
                    for alias in subset
                ):
                    # Avoid Cartesian products unless the subset has no
                    # connected decomposition at all.
                    continue
                candidates.extend(
                    _join_methods(
                        planner,
                        outer_set,
                        outer_plans,
                        inner_alias,
                        best[frozenset((inner_alias,))],
                    )
                )
            if not candidates:
                raise OptimizerError(
                    f"no join candidates for subset {sorted(subset)}"
                )
            candidates.extend(_sort_ahead_variants(planner, candidates))
            best[subset] = _prune(planner, candidates)
    return best[universe]


def _enumerate_sequential(planner: PlannerContext) -> List[PlanNode]:
    """Left-deep planning in FROM order (used when outer joins exist)."""
    aliases = list(planner.block.tables)
    outer_joins = planner.block.outer_joins
    candidates = _built(access_paths(planner, aliases[0]))
    candidates.extend(_sort_ahead_variants(planner, candidates))
    plans = _prune(planner, candidates)
    for position, alias in enumerate(aliases[1:], 1):
        if alias in outer_joins:
            candidates = _left_outer_join_methods(
                planner, plans, alias, outer_joins[alias]
            )
        else:
            outer_set = frozenset(aliases[:position])
            inner_plans = _prune(planner, _built(access_paths(planner, alias)))
            candidates = _join_methods(
                planner, outer_set, plans, alias, inner_plans
            )
        if not candidates:
            raise OptimizerError(f"no join candidates adding {alias}")
        candidates.extend(_sort_ahead_variants(planner, candidates))
        plans = _prune(planner, candidates)
        planner.stats.subsets_expanded += 1
    return plans


def _left_outer_join_methods(
    planner: PlannerContext,
    outer_plans: Sequence[PlanNode],
    inner_alias: str,
    on_predicate: Expression,
) -> List[Candidate]:
    """LEFT OUTER JOIN methods for each of ``outer_plans``: nested-loop,
    hash, and index probes.

    ON conjuncts touching only the inner table filter the inner input
    before matching (ON semantics); cross-side conjuncts decide matches
    and padding. The filtered inner is built once for every outer plan.
    """
    derived = planner.is_derived(inner_alias)
    inner_only: List[Expression] = []
    cross: List[Expression] = []
    for conjunct in conjuncts_of(on_predicate):
        touched = {c.qualifier for c in columns_of(conjunct)} - {""}
        (inner_only if touched <= {inner_alias} else cross).append(conjunct)

    # The inner-only conjuncts become one FILTER node, which feedback
    # observes (and corrects) as one conjunction.
    selectivity = planner.estimator.conjunction_selectivity(inner_only)
    if derived:
        inner_input = planner.derived_plans[inner_alias][0]
        inner_rows = max(1.0, inner_input.properties.cardinality * selectivity)
        inner_scan = _apply_filters(
            planner, inner_input, inner_only, inner_rows
        )
    else:
        table = planner.table_for(inner_alias)
        inner_rows = max(1.0, float(table.stats.row_count) * selectivity)
        inner_scan = _table_scan_plan(
            planner, inner_alias, table, inner_only, inner_rows
        )
    match_selectivity = 1.0
    for conjunct in cross:
        match_selectivity *= planner.estimator.selectivity(conjunct)

    # Every plan over one alias set has the same columns.
    outer_columns = frozenset(outer_plans[0].properties.schema.columns)
    inner_columns = frozenset(inner_scan.properties.schema.columns)
    pairs = _dedupe_pairs(_equi_pairs(cross, outer_columns, inner_columns))
    covered = {p for _o, _i, p in pairs}
    residual = [conjunct for conjunct in cross if conjunct not in covered]
    probes = _index_probe_joins(
        planner,
        inner_alias,
        pairs if planner.config.enable_index_nlj and not derived else [],
        cross,
        inner_only,
        left_outer=True,
    )

    results: List[Candidate] = []
    for outer_plan in outer_plans:
        outer_rows = outer_plan.properties.cardinality
        output_rows = max(
            outer_rows, outer_rows * inner_rows * match_selectivity
        )
        results.extend(
            _order_blind_joins(
                planner, outer_plan, inner_scan, inner_rows, output_rows,
                cross, cross, pairs, residual, left_outer=True,
            )
        )
        results.extend(probes(outer_plan, output_rows))
    planner.stats.plans_generated += len(results)
    return results


def _order_blind_joins(
    planner: PlannerContext,
    outer_plan: PlanNode,
    inner_plan: PlanNode,
    inner_rows: float,
    output_rows: float,
    predicates: Sequence[Expression],
    hash_predicates: Sequence[Expression],
    pairs: Sequence[Tuple[ColumnRef, ColumnRef, Expression]],
    residual: Sequence[Expression],
    left_outer: bool = False,
) -> List[Candidate]:
    """Nested-loop join and, given equi-pairs, hash join: the methods
    whose output keeps the outer's order whatever the inner's is."""
    flags = {"left_outer": True} if left_outer else {}
    cost_model = planner.cost_model
    outer_rows = outer_plan.properties.cardinality
    children = (outer_plan, inner_plan)
    inputs_cost = outer_plan.cost + inner_plan.cost
    # --- naive nested loops (always legal; also covers Cartesian): the
    # inner is materialized once, each outer row pays CPU over it
    method = cost_model.nested_loop_join(
        outer_rows, cost_model.filter_rows(inner_rows), output_rows
    )
    results = [
        _join_candidate(
            OpKind.NLJ,
            children,
            inner_plan.properties,
            predicates,
            output_rows,
            inputs_cost + method,
            {"predicate": _and_all(predicates), **flags},
        )
    ]
    if pairs and planner.config.enable_hash_join:
        # --- hash join: the probe side streams in its own order ---
        method = cost_model.hash_join(
            inner_rows, outer_rows, output_rows, planner.pages_for(inner_rows)
        )
        args = {
            "outer_keys": [o for o, _i, _p in pairs],
            "inner_keys": [i for _o, i, _p in pairs],
            "residual": _and_all(residual),
            **flags,
        }
        results.append(
            _join_candidate(
                OpKind.HASH_JOIN,
                children,
                inner_plan.properties,
                hash_predicates,
                output_rows,
                inputs_cost + method,
                args,
            )
        )
    return results


def _connected(
    planner: PlannerContext, outer_set: AliasSet, inner_alias: str
) -> bool:
    subset = outer_set | {inner_alias}
    return any(
        inner_alias in touched and len(touched) > 1 and touched <= subset
        for _predicate, touched in planner.join_predicates
    )


def _applicable_join_predicates(
    planner: PlannerContext, outer_set: AliasSet, inner_alias: str
) -> List[Expression]:
    """Join conjuncts evaluable once ``inner_alias`` joins ``outer_set``
    that were not evaluable before."""
    subset = outer_set | {inner_alias}
    return [
        predicate
        for predicate, touched in planner.join_predicates
        if touched <= subset and not touched <= outer_set
    ]


def _equi_pairs(
    predicates: Sequence[Expression],
    outer_columns: FrozenSet[ColumnRef],
    inner_columns: FrozenSet[ColumnRef],
) -> List[Tuple[ColumnRef, ColumnRef, Expression]]:
    """(outer column, inner column, predicate) for each equi-conjunct."""
    pairs = []
    for predicate in predicates:
        match = is_column_equality(predicate)
        if match is None:
            continue
        left, right = match
        if left in outer_columns and right in inner_columns:
            pairs.append((left, right, predicate))
        elif right in outer_columns and left in inner_columns:
            pairs.append((right, left, predicate))
    return pairs


def _dedupe_pairs(
    pairs: List[Tuple[ColumnRef, ColumnRef, Expression]],
) -> List[Tuple[ColumnRef, ColumnRef, Expression]]:
    """One equi-pair per distinct outer and inner column.

    Two predicates equating different outer columns to the same inner
    column (a.x = b.x AND c.x = b.x) keep only the first as a join key;
    the other is evaluated as a residual predicate.
    """
    seen_outer: set = set()
    seen_inner: set = set()
    unique = []
    for outer, inner, predicate in pairs:
        if outer in seen_outer or inner in seen_inner:
            continue
        seen_outer.add(outer)
        seen_inner.add(inner)
        unique.append((outer, inner, predicate))
    return unique


def _order_blind_key(plan: PlanNode) -> tuple:
    """What a join's properties, cost and context read of an inner
    input, bar its order (and its predicate set, which no context
    sees): inner plans equal on this form one class."""
    columns, _, keys, fds, equivalences, constants, _, rows = (
        plan.properties.content_key()
    )
    return columns, keys, fds, equivalences, constants, rows


def _join_methods(
    planner: PlannerContext,
    outer_set: AliasSet,
    outer_plans: Sequence[PlanNode],
    inner_alias: str,
    inner_plans: Sequence[PlanNode],
) -> List[Candidate]:
    """Every join method combining each of ``outer_plans`` (the plans
    over ``outer_set``) with ``inner_alias``.

    What no outer plan changes — predicates, output rows, each inner
    class's equi-pairs, the index probes — is worked out once here.
    Nested-loop and hash join keep the outer's order, so an inner's
    order is wasted on them: they price only the first (cheapest) plan
    of each class of ``inner_plans`` (:func:`_order_blind_key`). A merge
    join takes the member cheapest once sorted for it, the first on
    ties. Every pairing left out has the order and context of a kept
    one at no lower cost, so ``_prune`` would drop it; the
    price-every-inner oracle in ``test_prune_differential.py`` checks it.
    """
    predicates = _applicable_join_predicates(planner, outer_set, inner_alias)
    output_rows = planner.subset_cardinality(outer_set | {inner_alias})
    # Every plan over one alias set has the same columns.
    outer_columns = frozenset(outer_plans[0].properties.schema.columns)
    classes: Dict[tuple, List[PlanNode]] = {}
    for inner_plan in inner_plans:
        classes.setdefault(_order_blind_key(inner_plan), []).append(inner_plan)
    class_of = {}
    for plans in classes.values():
        inner_columns = frozenset(plans[0].properties.schema.columns)
        pairs = _dedupe_pairs(
            _equi_pairs(predicates, outer_columns, inner_columns)
        )
        covered = {p for _o, _i, p in pairs}
        residual = [p for p in predicates if p not in covered]
        for inner_plan in plans:
            class_of[id(inner_plan)] = (plans, pairs, residual)
    cheapest_sorted: Dict[tuple, Tuple[Optional[PlanNode], ...]] = {}

    def merge_input(plans, inner_plan, required):
        """``inner_plan`` sorted on ``required`` if it is the member of
        its class cheapest so sorted (the first on ties), else None."""
        key = (id(plans), required)
        if key not in cheapest_sorted:
            sorted_plans = [
                (_ensure_order(planner, plan, required, "merge-join"), plan)
                for plan in plans
            ]
            cheapest_sorted[key] = min(
                (entry for entry in sorted_plans if entry[0] is not None),
                key=lambda entry: entry[0].cost.total_ms,
                default=(None, None),
            )
        sorted_plan, plan = cheapest_sorted[key]
        return sorted_plan if plan is inner_plan else None

    probe_pairs = []
    if planner.config.enable_index_nlj and not planner.is_derived(inner_alias):
        # Derived tables have no indexes to probe.
        inner_base = frozenset(
            ColumnRef(inner_alias, column.name)
            for column in planner.table_for(inner_alias).columns
        )
        probe_pairs = _equi_pairs(predicates, outer_columns, inner_base)
    probes = _index_probe_joins(
        planner,
        inner_alias,
        probe_pairs,
        predicates,
        planner.local_predicates.get(inner_alias, []),
    )

    results: List[Candidate] = []
    for outer_plan in outer_plans:
        for inner_plan in inner_plans:
            plans, pairs, residual = class_of[id(inner_plan)]
            if inner_plan is plans[0]:
                results.extend(
                    _order_blind_joins(
                        planner, outer_plan, inner_plan,
                        inner_plan.properties.cardinality, output_rows,
                        predicates, [p for _o, _i, p in pairs] + residual,
                        pairs, residual,
                    )
                )
            if pairs:
                results.extend(
                    _merge_joins(
                        planner,
                        outer_plan,
                        partial(merge_input, plans, inner_plan),
                        pairs,
                        residual,
                        output_rows,
                    )
                )
        results.extend(probes(outer_plan, output_rows))
    planner.stats.plans_generated += len(results)
    return results


def _merge_joins(
    planner: PlannerContext,
    outer_plan: PlanNode,
    sorted_inner_for: Callable[[OrderSpec], Optional[PlanNode]],
    pairs: Sequence[Tuple[ColumnRef, ColumnRef, Expression]],
    residual: Sequence[Expression],
    output_rows: float,
) -> List[Candidate]:
    """Merge join, inserting sorts on either side when needed;
    ``sorted_inner_for(order)`` is the inner input sorted on ``order``,
    or None when this inner does not take part in that merge join.

    §5.2: when an interesting order is pushed to the outer of a merge
    join, "a cover with the merge-join order is also required" — so when
    the outer needs a sort anyway, we also try sorting it on the *cover*
    of the join order and each pending interesting order: the same sort
    then feeds both the merge join and the downstream consumer.
    """
    config = planner.config
    predicates = [predicate for _o, _i, predicate in pairs] + list(residual)

    # Equi-pairs are an unordered set; any key sequence yields a valid
    # merge join. Shared sort segments: also try the sequence that leads
    # with the outer's delivered order, so the outer's enforcement sort
    # degrades to a partial sort reusing the earlier sort's prefix.
    sequences = [list(pairs)]
    if config.effective("enable_partial_sort"):
        aligned = _segment_aligned_pairs(outer_plan, pairs)
        if aligned is not None:
            sequences.append(aligned)

    results: List[Candidate] = []
    for sequence in sequences:
        inner_keys = [i for _o, i, _p in sequence]
        sorted_inner = sorted_inner_for(OrderSpec.of(*inner_keys))
        if sorted_inner is None:
            continue
        outer_keys = [o for o, _i, _p in sequence]
        outer_required = OrderSpec.of(*outer_keys)
        primary = _ensure_order(
            planner, outer_plan, outer_required, "merge-join"
        )
        if primary is None:
            continue
        outer_variants = [primary]
        if config.effective("enable_cover") and primary is not outer_plan:
            # A sort was needed anyway.
            outer_variants.extend(
                _covered_merge_sorts(planner, outer_plan, outer_required)
            )

        for sorted_outer in outer_variants:
            cost = (
                sorted_outer.cost
                + sorted_inner.cost
                + planner.cost_model.merge_join(
                    sorted_outer.properties.cardinality,
                    sorted_inner.properties.cardinality,
                    output_rows,
                )
            )
            results.append(
                _join_candidate(
                    OpKind.MERGE_JOIN,
                    (sorted_outer, sorted_inner),
                    sorted_inner.properties,
                    predicates,
                    output_rows,
                    cost,
                    {
                        "outer_keys": outer_keys,
                        "inner_keys": inner_keys,
                        "residual": _and_all(list(residual)),
                    },
                )
            )
    return results


def _segment_aligned_pairs(
    outer_plan: PlanNode,
    pairs: Sequence[Tuple[ColumnRef, ColumnRef, Expression]],
) -> Optional[List[Tuple[ColumnRef, ColumnRef, Expression]]]:
    """Reorder equi-pairs so the outer's delivered order leads.

    Walks the outer's order property, pulling forward each pair whose
    outer column matches the next delivered key; remaining pairs keep
    their original relative order. Returns None when the walk changes
    nothing (first delivered key matches no pair, or the order is
    already aligned).
    """
    by_outer = {}
    for pair in pairs:
        by_outer.setdefault(pair[0], pair)
    leading: List[Tuple[ColumnRef, ColumnRef, Expression]] = []
    used = set()
    for key in outer_plan.order:
        pair = by_outer.get(key.column)
        if pair is None or id(pair) in used:
            break
        leading.append(pair)
        used.add(id(pair))
    if not leading:
        return None
    aligned = leading + [pair for pair in pairs if id(pair) not in used]
    if aligned == list(pairs):
        return None
    return aligned


def _covered_merge_sorts(
    planner: PlannerContext,
    outer_plan: PlanNode,
    outer_required: OrderSpec,
) -> List[PlanNode]:
    """Sorts on covers of the merge-join order with interesting orders."""
    from repro.core.cover import cover_order

    context = outer_plan.properties.context()
    available = frozenset(outer_plan.properties.schema.columns)
    variants: List[PlanNode] = []
    seen = {outer_required}
    for homogenized in planner.homogenized_interesting(available)[:2]:
        if homogenized is None or homogenized.is_empty():
            continue
        cover = cover_order(outer_required, homogenized, context)
        if cover is None or cover in seen:
            continue
        if not cover.subset_columns(available):
            continue
        seen.add(cover)
        variants.append(
            make_sort(planner, outer_plan, cover, "merge-join cover")
        )
    return variants


@_once_per_plan
def _ensure_order(
    planner: PlannerContext,
    plan: PlanNode,
    required: OrderSpec,
    reason: str,
) -> Optional[PlanNode]:
    """``plan`` if its order satisfies ``required``, else a sort on top."""
    if required.is_empty():
        return plan
    context = plan.properties.context()
    if order_satisfies(planner.config, required, plan.order, context):
        return plan
    target = sort_columns_for(planner.config, required, context)
    if target.is_empty():
        return plan
    if not target.subset_columns(plan.properties.schema.columns):
        return None
    return make_sort(planner, plan, target, reason)


@_once_per_plan
def make_sort(
    planner: PlannerContext,
    plan: PlanNode,
    order: OrderSpec,
    reason: str,
) -> PlanNode:
    """Enforce ``order`` on ``plan`` — the single sort construction site.

    Every SORT and PARTIAL_SORT node comes from here (finalize's Top-N
    rewrite only bounds one of them; UNION reaches finalize as a block),
    which ``tests/test_sort_construction_sites.py`` enforces. With
    ``enable_partial_sort`` on, a delivered order satisfying a proper
    prefix of the target turns the enforcement into a segmented partial
    sort: only the suffix keys are sorted, one prefix-group at a time.
    """
    rows = plan.properties.cardinality
    prefix_length = 0
    if planner.config.effective("enable_partial_sort"):
        prefix_length = satisfied_prefix_length(
            planner.config, order, plan.order, plan.properties.context()
        )
    args = {"order": order, "reason": reason}
    groups = None
    if prefix_length:
        groups = _distinct_prefix_groups(
            planner, order.prefix(prefix_length), rows
        )
        args.update(prefix=prefix_length, groups=groups)
    cost = plan.cost + planner.cost_model.sort(
        rows, len(order) - prefix_length, planner.pages_for(rows), groups
    )
    return PlanNode(
        OpKind.PARTIAL_SORT if prefix_length else OpKind.SORT,
        (plan,),
        propagate_sort(plan.properties, order),
        cost,
        args,
    )


def _distinct_prefix_groups(
    planner: PlannerContext, prefix: OrderSpec, rows: float
) -> float:
    """Estimated distinct prefix-value count.

    Prefers the joint NDV from the table's row sample: correlated
    prefixes (``(year(d), d)``-style, or region/nation pairs) have far
    fewer real combinations than the per-column NDV product claims,
    and overestimating groups makes partial sort look too cheap. The
    product (capped by row count) remains the fallback when the prefix
    spans tables or no sample exists.
    """
    joint = planner.stats_view.joint_ndv([key.column for key in prefix])
    if joint is not None:
        return max(1.0, min(joint, max(1.0, rows)))
    groups = 1.0
    for key in prefix:
        stats = planner.stats_view.column_stats(key.column)
        groups *= float(stats.ndv) if stats is not None else 10.0
    return max(1.0, min(groups, max(1.0, rows)))


def _index_probe_joins(
    planner: PlannerContext,
    inner_alias: str,
    pairs: Sequence[Tuple[ColumnRef, ColumnRef, Expression]],
    predicates: Sequence[Expression],
    inner_filters: Sequence[Expression],
    left_outer: bool = False,
) -> Callable[[PlanNode, float], List[Candidate]]:
    """Nested-loop joins probing an index of the inner base table.

    ``pairs`` are the equi-pairs a probe may use, ``predicates`` the
    join (or ON) conjuncts, ``inner_filters`` the inner-only conjuncts
    evaluated on each fetched row. What no outer plan changes is worked
    out here; the returned function prices the probes of one outer plan
    producing ``output_rows``.
    """
    if not pairs:
        return lambda outer_plan, output_rows: []
    table = planner.table_for(inner_alias)
    store = planner.database.store(table.name)
    probes = []
    for index in planner.database.catalog.indexes_on(table.name):
        if index.name not in store.indexes:
            continue
        probe_pairs = []
        for key_column in index.key:
            target = ColumnRef(inner_alias, key_column.name)
            match = next(
                (pair for pair in pairs if pair[1] == target), None
            )
            if match is None:
                break
            probe_pairs.append(match)
        if not probe_pairs:
            continue
        probe_outer = [o for o, _i, _p in probe_pairs]
        covered = {p for _o, _i, p in probe_pairs}
        residual = [p for p in predicates if p not in covered] + list(
            inner_filters
        )
        selectivity = planner.estimator.selectivity(probe_pairs[0][2])
        matches = max(0.1, table.stats.row_count * selectivity)
        args = {
            "table": table.name,
            "index": index.name,
            "alias": inner_alias,
            "probe_columns": probe_outer,
            "residual": _and_all(residual),
            "ordered": False,
        }
        if left_outer:
            # Padded rows break the probe equalities: only the ON
            # conjuncts describe the output (see the propagation rule).
            args["left_outer"] = True
            described = predicates
        else:
            described = [p for _o, _i, p in probe_pairs] + residual
        probe_order = OrderSpec.of(*probe_outer)
        height = store.indexes[index.name][1].height
        probes.append((probe_order, matches, height, index, args, described))
    inner_properties = base_table_properties(inner_alias, table)

    def price(outer_plan: PlanNode, output_rows: float) -> List[Candidate]:
        results: List[Candidate] = []
        for probe_order, matches, height, index, args, described in probes:
            # Detecting that the probe stream arrives in index order IS
            # order optimization (Section 8.1: the disabled optimizer
            # "was unable to determine that the same sort could be used
            # to generate an ordered nested-loop join"), so the disabled
            # build never plans ordered probes and prices every probe as
            # random I/O.
            ordered = planner.config.order_optimization and order_satisfies(
                planner.config,
                probe_order,
                outer_plan.order,
                outer_plan.properties.context(),
            )
            cost = outer_plan.cost + planner.cost_model.index_nlj(
                outer_rows=outer_plan.properties.cardinality,
                matches_per_probe=matches,
                table_pages=table.stats.pages,
                table_rows=table.stats.row_count,
                tree_height=height,
                ordered=ordered,
                clustered=index.clustered,
                output_rows=output_rows,
            )
            results.append(
                _join_candidate(
                    OpKind.NLJ_INDEX,
                    (outer_plan,),
                    inner_properties,
                    described,
                    output_rows,
                    cost,
                    dict(args, ordered=ordered),
                )
            )
        return results

    return price


def _sort_ahead_variants(
    planner: PlannerContext, candidates: Sequence[Candidate]
) -> List[Candidate]:
    """Sorted variants of the cheapest plan for each interesting order.

    This is sort-ahead (Section 5.1/5.2): each interesting order hung off
    the block is homogenized to the columns available at this level; a
    sort enforcing it is tried on the cheapest subplan (which pruning
    always keeps, so building it here costs nothing extra).
    """
    config = planner.config
    if not config.effective("enable_sort_ahead"):
        return []
    if not candidates:
        return []
    cheapest = min(candidates, key=lambda c: c.cost.total_ms).node()
    variants: List[PlanNode] = []
    available = frozenset(cheapest.properties.schema.columns)
    context = cheapest.properties.context()
    homogenized_orders = planner.homogenized_interesting(available)
    for homogenized in homogenized_orders[:MAX_SORT_AHEAD_ORDERS]:
        if homogenized is None or homogenized.is_empty():
            continue
        target = reduce_order(homogenized, context)
        if target.is_empty():
            continue
        if order_satisfies(config, target, cheapest.order, context):
            continue
        variants.append(make_sort(planner, cheapest, target, "sort-ahead"))
    planner.stats.sort_ahead_plans += len(variants)
    return _built(variants)


def _prune(
    planner: PlannerContext, candidates: Sequence[Candidate]
) -> List[PlanNode]:
    """Dominance pruning: drop a candidate if a cheaper (or equal)
    survivor's order satisfies its order; keep at most a bounded number
    of survivors, cheapest first (the sort is stable, so equal costs
    keep their list position).

    A candidate whose order is a literal prefix of a survivor's is
    dominated in every context — Reduce Order rewrites a key using only
    the keys before it, so the reduced prefix stays a prefix — and is
    dropped unbuilt. Only the others are built and asked Test Order
    under their own properties.
    """
    config = planner.config
    survivors: List[PlanNode] = []
    for candidate in sorted(candidates, key=lambda c: c.cost.total_ms):
        order = candidate.order
        dominated = any(order.is_prefix_of(kept.order) for kept in survivors)
        if not dominated:
            plan = candidate.node()
            context = plan.properties.context()
            dominated = any(
                order_satisfies(config, order, kept.order, context)
                for kept in survivors
            )
        if dominated:
            planner.stats.plans_pruned += 1
            continue
        survivors.append(plan)
        if len(survivors) >= _MAX_PLANS_PER_SUBSET:
            break
    planner.stats.plans_built += sum(c._node is not None for c in candidates)
    return survivors
