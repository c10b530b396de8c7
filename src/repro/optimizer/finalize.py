"""Planning above the join: GROUP BY, HAVING, DISTINCT, ORDER BY,
projection.

This is where the paper's operations pay off together (Section 6): the
GROUP BY's general order is aligned with the ORDER BY via Cover Order
logic so one sort can serve both; Test Order decides whether any sort is
needed at all; Reduce Order supplies the minimal sort columns.
"""

from __future__ import annotations

from itertools import takewhile
from typing import Callable, List, Optional, Sequence, Tuple

from repro.core.fd import FDSet
from repro.core.general import GeneralOrderSpec
from repro.core.ordering import OrderSpec
from repro.expr.nodes import ColumnRef
from repro.expr.schema import RowSchema
from repro.optimizer.enumerate import make_sort
from repro.optimizer.helpers import (
    general_satisfies,
    general_sort_targets,
    order_satisfies,
    sort_columns_for,
)
from repro.optimizer.plan import OpKind, PlanNode
from repro.optimizer.planner import PlannerContext
from repro.properties.propagate import (
    computed_column_fds,
    propagate_distinct,
    propagate_filter,
    propagate_group_by,
    propagate_project,
)
from repro.properties.stream import StreamProperties


def finalize_plans(
    planner: PlannerContext, join_plans: Sequence[PlanNode]
) -> List[PlanNode]:
    """Complete each join plan into a full query plan; returns candidates."""
    block = planner.block
    candidates: List[PlanNode] = []
    for plan in join_plans:
        plan = _apply_post_join_filters(planner, plan)
        variants: List[PlanNode] = [plan]
        if block.has_group_by():
            variants = _plan_group_by(planner, plan)
        if block.having is not None:
            variants = [
                _apply_having(planner, variant) for variant in variants
            ]
        if block.distinct:
            expanded: List[PlanNode] = []
            for variant in variants:
                expanded.extend(_plan_distinct(planner, variant))
            variants = expanded
        ordered: List[PlanNode] = []
        for variant in variants:
            ensured = _ensure_order_by(planner, variant)
            if ensured is not None:
                ordered.append(_final_projection(planner, ensured))
                continue
            # ORDER BY names computed outputs the pre-projection stream
            # cannot provide (``val + 1 AS v ... ORDER BY v``): project
            # first, sort the projected stream.
            projected = _final_projection(planner, variant)
            ensured = _ensure_order_by(planner, projected)
            if ensured is not None:
                ordered.append(ensured)
        variants = [_apply_fetch_first(planner, variant) for variant in ordered]
        candidates.extend(variants)
    return candidates


def _apply_post_join_filters(
    planner: PlannerContext, plan: PlanNode
) -> PlanNode:
    """WHERE conjuncts on null-supplying aliases run after all joins."""
    predicates = planner.post_join_predicates
    if not predicates:
        return plan
    combined = predicates[0]
    for extra in predicates[1:]:
        from repro.expr.nodes import BooleanExpr, BooleanOp

        combined = BooleanExpr(BooleanOp.AND, (combined, extra))
    selectivity = planner.estimator.selectivity(combined)
    rows = plan.properties.cardinality * selectivity
    properties = propagate_filter(plan.properties, combined, rows)
    cost = plan.cost + planner.cost_model.filter_rows(
        plan.properties.cardinality
    )
    return PlanNode(
        OpKind.FILTER, (plan,), properties, cost, {"predicate": combined}
    )


def _apply_fetch_first(planner: PlannerContext, plan: PlanNode) -> PlanNode:
    """FETCH FIRST n ROWS ONLY — with the Top-N sort rewrite.

    When the plan ends ``limit`` over ``project`` over a full ORDER BY
    sort, the sort is replaced by a bounded top-n sort: the interesting-
    order machinery already minimized its columns, the limit minimizes
    its rows.
    """
    count = planner.block.fetch_first
    if count is None:
        return plan
    plan = _rewrite_topmost_sort_to_topn(planner, plan, count)
    rows = min(float(count), plan.properties.cardinality)
    properties = plan.properties.with_cardinality(rows)
    return PlanNode(
        OpKind.LIMIT,
        (plan,),
        properties,
        plan.cost + planner.cost_model.project_rows(rows),
        {"count": count},
    )


def _rewrite_topmost_sort_to_topn(
    planner: PlannerContext, plan: PlanNode, count: int
) -> PlanNode:
    """Bound the topmost ORDER BY sort, looking through projections,
    by ``count``: a full sort becomes a top-n sort, and a partial sort
    stays one that stops after enough groups and bounds each group's
    buffer (cheaper than a top-n sort, which would re-sort the prefix
    the input already delivers)."""
    if (
        plan.kind in (OpKind.SORT, OpKind.PARTIAL_SORT)
        and plan.args.get("reason") == "order by"
        and plan.args.get("limit") is None
    ):
        child = plan.children[0]
        rows = child.properties.cardinality
        args = dict(plan.args, limit=count)
        cost = child.cost + planner.cost_model.sort(
            rows,
            len(args["order"]) - args.get("prefix", 0),
            planner.pages_for(rows),
            groups=args.get("groups"),
            limit=count,
        )
        kind = OpKind.TOPN if plan.kind is OpKind.SORT else plan.kind
        return PlanNode(kind, (child,), plan.properties, cost, args)
    if plan.kind is OpKind.PROJECT:
        rewritten = _rewrite_topmost_sort_to_topn(
            planner, plan.children[0], count
        )
        if rewritten is not plan.children[0]:
            return PlanNode(
                plan.kind,
                (rewritten,),
                plan.properties,
                rewritten.cost
                + planner.cost_model.project_rows(
                    min(float(count), rewritten.properties.cardinality)
                ),
                plan.args,
            )
    return plan


# ----------------------------------------------------------------------
# GROUP BY
# ----------------------------------------------------------------------


def _plan_group_by(
    planner: PlannerContext, plan: PlanNode
) -> List[PlanNode]:
    """Sorted and hash GROUP BY variants over one join plan."""
    block = planner.block
    aggregate_columns = [
        ColumnRef("", name) for name, _aggregate in block.aggregates
    ]
    output_schema = RowSchema(list(block.group_columns) + aggregate_columns)
    return _grouping_variants(
        planner,
        plan,
        block.group_columns,
        "group by",
        (OpKind.GROUP_SORTED, OpKind.GROUP_HASH),
        lambda properties, rows: propagate_group_by(
            properties,
            block.group_columns,
            output_schema,
            aggregate_columns,
            rows,
        ),
        {
            "group_columns": list(block.group_columns),
            "aggregates": list(block.aggregates),
        },
    )


def _apply_having(planner: PlannerContext, plan: PlanNode) -> PlanNode:
    having = planner.block.having
    selectivity = planner.estimator.selectivity(having)
    rows = plan.properties.cardinality * selectivity
    properties = propagate_filter(plan.properties, having, rows)
    cost = plan.cost + planner.cost_model.filter_rows(
        plan.properties.cardinality
    )
    return PlanNode(
        OpKind.FILTER, (plan,), properties, cost, {"predicate": having}
    )


# ----------------------------------------------------------------------
# DISTINCT
# ----------------------------------------------------------------------


def _distinct_output_rows(
    planner: PlannerContext, columns: List[ColumnRef], input_rows: float
) -> float:
    """Estimated group count of a GROUP BY or DISTINCT over ``columns``.

    Joint NDV when the columns share a sampled base table (correlated
    pairs stop multiplying), else the per-column NDV product — capped by
    the input. Computed output columns carry no statistics; when
    *nothing* has statistics the old halve-the-input heuristic is all
    that's defensible.
    """
    if not columns:
        return 1.0
    joint = planner.stats_view.joint_ndv(columns)
    if joint is not None:
        return max(1.0, min(joint, input_rows))
    distinct = 1.0
    known = False
    for column in columns:
        stats = planner.stats_view.column_stats(column)
        if stats is not None:
            known = True
            distinct *= float(stats.ndv)
        else:
            distinct *= 10.0
    if not known:
        return max(1.0, input_rows * 0.5)
    return max(1.0, min(distinct, input_rows))


def _plan_distinct(
    planner: PlannerContext, plan: PlanNode
) -> List[PlanNode]:
    """Sorted and hash DISTINCT variants (applied on the output columns).

    DISTINCT runs over the final select list; we project first so
    duplicate elimination sees exactly the output columns.
    """
    projected = _final_projection(planner, plan)
    return _grouping_variants(
        planner,
        projected,
        list(projected.properties.schema.columns),
        "distinct",
        (OpKind.DISTINCT_SORTED, OpKind.DISTINCT_HASH),
        propagate_distinct,
        {},
    )


def _grouping_variants(
    planner: PlannerContext,
    plan: PlanNode,
    columns: Sequence[ColumnRef],
    reason: str,
    kinds: Tuple[OpKind, OpKind],
    propagate: Callable[[StreamProperties, float], StreamProperties],
    args: dict,
) -> List[PlanNode]:
    """Sorted (``kinds[0]``) and hash (``kinds[1]``) variants of one
    GROUP BY or DISTINCT: §7 gives both one general order, any
    permutation of ``columns`` in any directions."""
    config = planner.config
    cost_model = planner.cost_model
    output_rows = _distinct_output_rows(
        planner, columns, plan.properties.cardinality
    )

    def node(child: PlanNode, hash_based: bool) -> PlanNode:
        properties = propagate(child.properties, output_rows)
        input_rows = child.properties.cardinality
        if hash_based:
            properties = properties.with_order(OrderSpec())
            cost = cost_model.group_by_hash(
                input_rows, output_rows, planner.pages_for(output_rows)
            )
        else:
            cost = cost_model.group_by_sorted(input_rows, output_rows)
        return PlanNode(
            kinds[hash_based], (child,), properties, child.cost + cost, dict(args)
        )

    variants: List[PlanNode] = []
    # No columns is scalar aggregation: the hash operator handles it.
    if columns:
        context = plan.properties.context()
        general = GeneralOrderSpec.from_group_by(columns)
        written = OrderSpec.of(*columns)
        if general_satisfies(config, general, plan.order, context, written):
            variants.append(node(plan, hash_based=False))
        else:
            for target in general_sort_targets(
                config, general, context, planner.block.order_by, written
            ):
                if target.subset_columns(plan.properties.schema.columns):
                    sorted_child = make_sort(planner, plan, target, reason)
                    variants.append(node(sorted_child, hash_based=False))
    if config.enable_hash or not variants:
        variants.append(node(plan, hash_based=True))
    return variants


# ----------------------------------------------------------------------
# ORDER BY and final projection
# ----------------------------------------------------------------------


def _ensure_order_by(
    planner: PlannerContext, plan: PlanNode
) -> Optional[PlanNode]:
    order_by = planner.block.order_by
    if order_by.is_empty():
        return plan
    context = plan.properties.context()
    if order_satisfies(planner.config, order_by, plan.order, context):
        return plan
    target = sort_columns_for(planner.config, order_by, context)
    if target.is_empty():
        return plan
    if not target.subset_columns(plan.properties.schema.columns):
        return None
    return make_sort(planner, plan, target, "order by")


def _final_projection(planner: PlannerContext, plan: PlanNode) -> PlanNode:
    """Project to the block's select list (skipped if already done)."""
    if plan.args.get("final_projection"):
        return plan
    block = planner.block
    expressions = [item.expression for item in block.select_items]
    outputs = [item.output for item in block.select_items]
    current = list(plan.properties.schema.columns)
    if outputs == current:
        # The stream already delivers exactly the output schema — a
        # projection below (e.g. DISTINCT's) computed any derived
        # items; re-projecting would re-evaluate their expressions
        # against a schema that no longer has the source columns.
        return plan
    # Deduplicate output columns (SELECT a.x, a.x is legal SQL but our
    # schemas demand uniqueness; the executor re-expands on fetch).
    seen = set()
    unique_expressions = []
    unique_outputs = []
    for expression, output in zip(expressions, outputs):
        if output in seen:
            continue
        seen.add(output)
        unique_expressions.append(expression)
        unique_outputs.append(output)
    schema = RowSchema(unique_outputs)
    simple = all(
        isinstance(expression, ColumnRef) for expression in unique_expressions
    )
    if simple:
        properties = propagate_project(plan.properties, unique_outputs)
    else:
        # Computed outputs: keys, equivalences and the input's FDs are
        # conservatively dropped. The order survives up to the first
        # projected-away column, and each computed item keeps the FD
        # from its inputs when they are outputs too (``s.amt`` and
        # ``s.amt + 5``).
        output_set = frozenset(unique_outputs)
        properties = StreamProperties(
            schema=schema,
            order=OrderSpec(
                takewhile(
                    lambda key: key.column in output_set, plan.properties.order
                )
            ),
            fds=FDSet(
                dependency
                for dependency in computed_column_fds(
                    zip(unique_expressions, unique_outputs)
                )
                if dependency.head <= output_set
            ),
            cardinality=plan.properties.cardinality,
        )
    cost = plan.cost + planner.cost_model.project_rows(
        plan.properties.cardinality
    )
    return PlanNode(
        OpKind.PROJECT,
        (plan,),
        properties,
        cost,
        {
            "expressions": unique_expressions,
            "final_projection": True,
        },
    )

