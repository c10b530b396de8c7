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
is a literal prefix of a cheaper survivor's (a set lookup) without ever
running ``propagate_join`` or making a ``PlanNode`` for it, and builds
the rest to ask Test Order under their own context. An inner's order is
paid for only where a merge join can use it, so join methods walk
order-blind classes of inner plans, not the plans (:func:`_join_methods`).
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
EquiPair = Tuple[ColumnRef, ColumnRef, Expression]

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
    ``PlanNode`` (and the property propagation behind it) on first use,
    as ``build(*args)``."""

    __slots__ = ("cost", "order", "_build", "_args", "_node")

    def __init__(self, cost, order, build=None, args=(), node=None):
        self.cost: Cost = cost
        self.order: OrderSpec = order
        self._build: Optional[Callable[..., PlanNode]] = build
        self._args: tuple = args
        self._node: Optional[PlanNode] = node

    def node(self) -> PlanNode:
        if self._node is None:
            self._node = self._build(*self._args)
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


def _build_join(
    kind: OpKind,
    children: Tuple[PlanNode, ...],
    inner: StreamProperties,
    predicates: Sequence[Expression],
    output_rows: float,
    cost: Cost,
    args: dict,
) -> PlanNode:
    """The node of a join candidate: ``children[0]`` (whose order every
    method here keeps) joined with a stream of ``inner`` properties;
    ``args["left_outer"]`` selects the outer-join propagation rule."""
    outer = children[0].properties
    if args.get("left_outer"):
        properties = propagate_left_outer_join(
            outer, inner, predicates, output_rows
        )
    else:
        properties = propagate_join(
            outer, inner, predicates, output_rows, True
        )
    return PlanNode(kind, children, properties, cost, args)


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
            splittable = None  # has the subset a connected decomposition?
            for inner_alias in subset:
                outer_set = subset - {inner_alias}
                outer_plans = best.get(outer_set, ())
                if not outer_plans:
                    continue
                if not _connected(planner, outer_set, inner_alias):
                    if splittable is None:
                        splittable = any(
                            _connected(planner, subset - {alias}, alias)
                            for alias in subset
                        )
                    if splittable:
                        # Avoid Cartesian products unless the subset has
                        # no connected decomposition at all.
                        continue
                inner_plans = best[frozenset((inner_alias,))]
                candidates.extend(
                    _join_methods(
                        planner, outer_set, outer_plans, inner_alias,
                        inner_plans,
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
    inner = ([inner_scan], pairs, residual, cross)
    probes = _index_probe_joins(
        planner,
        inner_alias,
        pairs if planner.config.enable_index_nlj and not derived else [],
        cross,
        inner_only,
        left_outer=True,
    )

    results: List[Candidate] = []
    prices: Dict[tuple, list] = {}
    for outer_plan in outer_plans:
        outer_rows = outer_plan.properties.cardinality
        output_rows = max(
            outer_rows, outer_rows * inner_rows * match_selectivity
        )
        results.extend(
            _order_blind_joins(
                planner, outer_plan, inner, inner_rows, output_rows, cross,
                prices, left_outer=True,
            )
        )
        results.extend(probes(outer_plan, output_rows))
    planner.stats.plans_generated += len(results)
    return results


def _order_blind_joins(
    planner: PlannerContext,
    outer_plan: PlanNode,
    inner: tuple,
    inner_rows: float,
    output_rows: float,
    predicates: Sequence[Expression],
    prices: Dict[tuple, list],
    left_outer: bool = False,
) -> List[Candidate]:
    """Nested-loop join and, given equi-pairs, hash join with the first
    plan of the class ``inner``: the methods whose output keeps the
    outer's order whatever the inner's is. Their costs and arguments
    depend on ``outer_plan`` only through its row count; ``prices``, a
    dict local to one join edge's call, holds them for the others."""
    plans, pairs, residual, hash_predicates = inner
    inner_plan = plans[0]
    outer_rows = outer_plan.properties.cardinality
    key = (id(plans), outer_rows, output_rows)
    priced = prices.get(key)
    if priced is None:
        flags = {"left_outer": True} if left_outer else {}
        cost_model = planner.cost_model
        # --- naive nested loops (always legal; also covers Cartesian):
        # the inner is materialized once, each outer row pays CPU over it
        method = cost_model.nested_loop_join(
            outer_rows, cost_model.filter_rows(inner_rows), output_rows
        )
        priced = [
            (OpKind.NLJ, predicates, method,
             {"predicate": _and_all(predicates), **flags}),
        ]
        if pairs and planner.config.enable_hash:
            # --- hash join: the probe side streams in its own order ---
            method = cost_model.hash_join(
                inner_rows, outer_rows, output_rows,
                planner.pages_for(inner_rows),
            )
            args = {
                "outer_keys": [o for o, _i, _p in pairs],
                "inner_keys": [i for _o, i, _p in pairs],
                "residual": _and_all(residual),
                **flags,
            }
            priced.append((OpKind.HASH_JOIN, hash_predicates, method, args))
        prices[key] = priced
    children = (outer_plan, inner_plan)
    inputs_cost = outer_plan.cost + inner_plan.cost
    results = []
    for kind, described, method, args in priced:
        cost = inputs_cost + method
        results.append(
            Candidate(
                cost, outer_plan.order, _build_join,
                (kind, children, inner_plan.properties, described,
                 output_rows, cost, args),
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
) -> List[EquiPair]:
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


def _dedupe_pairs(pairs: List[EquiPair]) -> List[EquiPair]:
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
    of each class of ``inner_plans`` (:func:`_order_blind_key`), once
    per outer row count. Merge join walks the classes: per outer plan
    and class, each key sequence takes the member cheapest once sorted
    for it, the first on ties. Every pairing left out has the order and
    context of a kept one at no lower cost, so ``_prune`` would drop it
    (the oracles in ``test_prune_differential.py`` check it). The list
    is in inner-plan order, order-blind joins first at each plan, so
    cost ties break as in a loop over every (outer, inner) pair.
    """
    predicates = _applicable_join_predicates(planner, outer_set, inner_alias)
    output_rows = planner.subset_cardinality(outer_set | {inner_alias})
    # Every plan over one alias set has the same columns.
    outer_columns = frozenset(outer_plans[0].properties.schema.columns)
    members: Dict[tuple, List[PlanNode]] = {}
    for inner_plan in inner_plans:
        members.setdefault(_order_blind_key(inner_plan), []).append(inner_plan)
    classes = []
    for plans in members.values():
        inner_columns = frozenset(plans[0].properties.schema.columns)
        pairs = _dedupe_pairs(
            _equi_pairs(predicates, outer_columns, inner_columns)
        )
        covered = {p for _o, _i, p in pairs}
        residual = [p for p in predicates if p not in covered]
        classes.append(
            (plans, pairs, residual, [p for _o, _i, p in pairs] + residual)
        )
    position = {id(plan): index for index, plan in enumerate(inner_plans)}

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
    prices: Dict[tuple, list] = {}
    cheapest_sorted: Dict[tuple, tuple] = {}
    for outer_plan in outer_plans:
        by_position: Dict[int, List[Candidate]] = {}
        for inner in classes:
            first = inner[0][0]  # the class's cheapest plan
            by_position.setdefault(position[id(first)], []).extend(
                _order_blind_joins(
                    planner, outer_plan, inner, first.properties.cardinality,
                    output_rows, predicates, prices,
                )
            )
            for member, merges in _merge_joins(
                planner, outer_plan, inner, output_rows, cheapest_sorted
            ):
                by_position.setdefault(position[id(member)], []).extend(merges)
        for index in sorted(by_position):
            results.extend(by_position[index])
        results.extend(probes(outer_plan, output_rows))
    planner.stats.plans_generated += len(results)
    return results


def _merge_joins(
    planner: PlannerContext,
    outer_plan: PlanNode,
    inner: tuple,
    output_rows: float,
    cheapest_sorted: Dict[tuple, tuple],
) -> List[Tuple[PlanNode, List[Candidate]]]:
    """Merge joins of ``outer_plan`` with the class ``inner``, inserting
    sorts on either side when needed: ``(member, candidates)`` per key
    sequence, ``member`` being the plan of the class cheapest once
    sorted on the sequence's inner keys, the first on ties.
    ``cheapest_sorted`` holds that choice per (class, order) for the
    rest of one ``_join_methods`` call.

    §5.2: when an interesting order is pushed to the outer of a merge
    join, "a cover with the merge-join order is also required" — so when
    the outer needs a sort anyway, we also try sorting it on the *cover*
    of the join order and each pending interesting order: the same sort
    then feeds both the merge join and the downstream consumer.
    """
    plans, pairs, residual, predicates = inner
    if not pairs:
        return []
    config = planner.config
    # Equi-pairs are an unordered set; any key sequence yields a valid
    # merge join. Shared sort segments: also try the sequence that leads
    # with the outer's delivered order, so the outer's enforcement sort
    # degrades to a partial sort reusing the earlier sort's prefix.
    sequences = [pairs]
    if config.effective("enable_partial_sort"):
        aligned = _segment_aligned_pairs(outer_plan, pairs)
        if aligned is not None:
            sequences.append(aligned)

    results = []
    for sequence in sequences:
        inner_keys = [i for _o, i, _p in sequence]
        inner_required = OrderSpec.of(*inner_keys)
        key = (id(plans), inner_required)
        chosen = cheapest_sorted.get(key)
        if chosen is None:
            sorted_plans = [
                (_ensure_order(planner, plan, inner_required, "merge-join"),
                 plan)
                for plan in plans
            ]
            chosen = cheapest_sorted[key] = min(
                (entry for entry in sorted_plans if entry[0] is not None),
                key=lambda entry: entry[0].cost.total_ms,
                default=(None, None),
            )
        sorted_inner, member = chosen
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
        args = {
            "outer_keys": outer_keys,
            "inner_keys": inner_keys,
            "residual": _and_all(residual),
        }
        merges = []
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
            merges.append(
                Candidate(
                    cost, sorted_outer.order, _build_join,
                    (OpKind.MERGE_JOIN, (sorted_outer, sorted_inner),
                     sorted_inner.properties, predicates, output_rows, cost,
                     args),
                )
            )
        results.append((member, merges))
    return results


def _segment_aligned_pairs(
    outer_plan: PlanNode,
    pairs: Sequence[EquiPair],
) -> Optional[List[EquiPair]]:
    """Reorder equi-pairs so the outer's delivered order leads.

    Walks the outer's order property, pulling forward each pair whose
    outer column matches the next delivered key; remaining pairs keep
    their original relative order. ``pairs`` are deduplicated, one per
    outer column. Returns None when the walk changes nothing (first
    delivered key matches no pair, or the order is already aligned).
    """
    by_outer = {pair[0]: pair for pair in pairs}
    leading: List[EquiPair] = []
    for key in outer_plan.order:
        pair = by_outer.get(key.column)
        if pair is None:
            break
        leading.append(pair)
    aligned = leading + [pair for pair in pairs if pair not in leading]
    return None if aligned == list(pairs) else aligned


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
    pairs: Sequence[EquiPair],
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
            match = next((pair for pair in pairs if pair[1] == target), None)
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
        method = partial(
            planner.cost_model.index_nlj,
            matches_per_probe=max(0.1, table.stats.row_count * selectivity),
            table_pages=table.stats.pages,
            table_rows=table.stats.row_count,
            tree_height=store.indexes[index.name][1].height,
            clustered=index.clustered,
        )
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
        probes.append((OrderSpec.of(*probe_outer), method, args, described))
    inner_properties = base_table_properties(inner_alias, table)
    # (probe, outer rows, ordered, output rows) -> (method cost, args):
    # all a probe's price takes from an outer plan but the plan's cost.
    priced: Dict[tuple, tuple] = {}

    def price(outer_plan: PlanNode, output_rows: float) -> List[Candidate]:
        results: List[Candidate] = []
        outer_rows = outer_plan.properties.cardinality
        for probe_order, method, args, described in probes:
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
            key = (method, outer_rows, ordered, output_rows)
            if key not in priced:
                priced[key] = (
                    method(
                        outer_rows=outer_rows,
                        ordered=ordered,
                        output_rows=output_rows,
                    ),
                    dict(args, ordered=ordered),
                )
            cost = outer_plan.cost + priced[key][0]
            results.append(
                Candidate(
                    cost, outer_plan.order, _build_join,
                    (OpKind.NLJ_INDEX, (outer_plan,), inner_properties,
                     described, output_rows, cost, priced[key][1]),
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
    if not candidates or not config.effective("enable_sort_ahead"):
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
    dropped unbuilt, found in a set of the survivors' key prefixes. Only
    the others are built and asked Test Order under their own properties.
    """
    config = planner.config
    survivors: List[PlanNode] = []
    prefixes = set()
    for candidate in sorted(candidates, key=lambda c: c.cost.total_ms):
        order = candidate.order
        dominated = order.keys in prefixes
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
        keys = plan.order.keys
        prefixes.update(keys[:length] for length in range(len(keys) + 1))
    planner.stats.plans_built += sum(c._node is not None for c in candidates)
    return survivors
