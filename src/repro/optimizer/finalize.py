"""Planning above the join: GROUP BY, HAVING, DISTINCT, ORDER BY,
projection.

This is where the paper's operations pay off together (Section 6): the
GROUP BY's general order is aligned with the ORDER BY via Cover Order
logic so one sort can serve both; Test Order decides whether any sort is
needed at all; Reduce Order supplies the minimal sort columns.
"""

from __future__ import annotations

from itertools import takewhile
from typing import List, Optional, Sequence

from repro.core.fd import FDSet
from repro.core.general import GeneralOrderSpec
from repro.core.ordering import OrderSpec
from repro.expr.nodes import ColumnRef
from repro.expr.schema import RowSchema
from repro.optimizer.enumerate import make_sort
from repro.optimizer.helpers import (
    general_satisfies,
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
    """Replace the topmost ORDER BY sort (possibly under projections or
    filters that preserve row identity) with a top-n sort."""
    if plan.kind is OpKind.SORT and plan.args.get("reason") == "order by":
        child = plan.children[0]
        rows = child.properties.cardinality
        order = plan.args["order"]
        cost = child.cost + planner.cost_model.top_n_sort(
            rows, len(order), count
        )
        return PlanNode(
            OpKind.TOPN,
            (child,),
            plan.properties,
            cost,
            {"order": order, "count": count},
        )
    if (
        plan.kind is OpKind.PARTIAL_SORT
        and plan.args.get("reason") == "order by"
        and plan.args.get("limit") is None
    ):
        # Groups stream out in target order, so the partial sort can
        # stop after enough groups and bound each group's heap: cheaper
        # than converting to a full top-n sort (which would re-sort the
        # prefix the input already delivers).
        child = plan.children[0]
        rows = child.properties.cardinality
        order = plan.args["order"]
        cost = child.cost + planner.cost_model.partial_sort_limited(
            rows,
            plan.args["groups"],
            len(order) - plan.args["prefix"],
            count,
        )
        return PlanNode(
            OpKind.PARTIAL_SORT,
            (child,),
            plan.properties,
            cost,
            dict(plan.args, limit=count),
        )
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


def _group_output_schema(planner: PlannerContext) -> RowSchema:
    block = planner.block
    outputs = list(block.group_columns) + [
        ColumnRef("", name) for name, _aggregate in block.aggregates
    ]
    return RowSchema(outputs)


def _group_output_rows(planner: PlannerContext, input_rows: float) -> float:
    """Estimated group count: joint NDV when the grouping columns share
    a sampled base table, else the per-column NDV product — capped."""
    block = planner.block
    if not block.group_columns:
        return 1.0
    joint = planner.stats_view.joint_ndv(list(block.group_columns))
    if joint is not None:
        return max(1.0, min(joint, input_rows))
    groups = 1.0
    for column in block.group_columns:
        stats = planner.stats_view.column_stats(column)
        groups *= float(stats.ndv) if stats is not None else 10.0
    return max(1.0, min(groups, input_rows))


def _plan_group_by(
    planner: PlannerContext, plan: PlanNode
) -> List[PlanNode]:
    """Sorted and hash GROUP BY variants over one join plan."""
    block = planner.block
    config = planner.config
    output_schema = _group_output_schema(planner)
    aggregate_columns = [
        ColumnRef("", name) for name, _aggregate in block.aggregates
    ]
    input_rows = plan.properties.cardinality
    output_rows = _group_output_rows(planner, input_rows)
    context = plan.properties.context()
    variants: List[PlanNode] = []

    general = GeneralOrderSpec.from_group_by(block.group_columns)

    def grouped(child: PlanNode, hash_based: bool) -> PlanNode:
        properties = propagate_group_by(
            child.properties,
            block.group_columns,
            output_schema,
            aggregate_columns,
            output_rows,
        )
        if hash_based:
            properties = properties.with_order(OrderSpec())
            cost = child.cost + planner.cost_model.group_by_hash(
                child.properties.cardinality,
                output_rows,
                planner.pages_for(output_rows),
            )
            kind = OpKind.GROUP_HASH
        else:
            cost = child.cost + planner.cost_model.group_by_sorted(
                child.properties.cardinality, output_rows
            )
            kind = OpKind.GROUP_SORTED
        return PlanNode(
            kind,
            (child,),
            properties,
            cost,
            {
                "group_columns": list(block.group_columns),
                "aggregates": list(block.aggregates),
            },
        )

    # --- order-based GROUP BY ---
    if not block.group_columns:
        # Scalar aggregation: hash operator handles it trivially.
        variants.append(grouped(plan, hash_based=True))
        return variants

    if general_satisfies(config, general, plan.order, context):
        variants.append(grouped(plan, hash_based=False))
    else:
        for target in _group_sort_targets(planner, general, context):
            if not target.subset_columns(plan.properties.schema.columns):
                continue
            sorted_child = make_sort(planner, plan, target, "group by")
            variants.append(grouped(sorted_child, hash_based=False))

    # --- hash-based GROUP BY ---
    if config.enable_hash_group_by:
        variants.append(grouped(plan, hash_based=True))
    return variants


def _group_sort_targets(
    planner: PlannerContext,
    general: GeneralOrderSpec,
    context,
) -> List[OrderSpec]:
    """Candidate sort orders establishing the GROUP BY requirement.

    With order optimization on: the order aligned with the ORDER BY (one
    sort serves both, the Cover Order payoff) and the minimal concrete
    order. With it off: exactly the written grouping column list.
    """
    block = planner.block
    config = planner.config
    if not config.effective("enable_general_orders"):
        return [OrderSpec.of(*block.group_columns)]
    targets: List[OrderSpec] = []
    if config.effective("enable_cover") and not block.order_by.is_empty():
        aligned = general.aligned_with(block.order_by, context)
        if aligned is not None and not aligned.is_empty():
            targets.append(aligned)
    minimal = general.concrete(context)
    if not minimal.is_empty() and minimal not in targets:
        targets.append(minimal)
    if not targets:
        # Everything reduced away (e.g. one-record stream): group input
        # is trivially grouped; sort on the first column as a fallback.
        targets.append(OrderSpec.of(*block.group_columns))
    return targets


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
    """Estimated distinct row count over the output columns.

    Mirrors GROUP BY's estimate: joint NDV when the columns share a
    sampled base table (correlated pairs stop multiplying), else the
    per-column NDV product — capped by the input. Computed output
    columns carry no statistics; when *nothing* has statistics the old
    halve-the-input heuristic is all that's defensible.
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
    projected = _final_projection(planner, plan, mark_projected=True)
    config = planner.config
    columns = list(projected.properties.schema.columns)
    output_rows = _distinct_output_rows(
        planner, columns, projected.properties.cardinality
    )
    context = projected.properties.context()
    general = GeneralOrderSpec.from_distinct(columns)
    variants: List[PlanNode] = []

    def distinct_node(child: PlanNode, hash_based: bool) -> PlanNode:
        properties = propagate_distinct(child.properties, output_rows)
        if hash_based:
            properties = properties.with_order(OrderSpec())
            kind = OpKind.DISTINCT_HASH
            cost = child.cost + planner.cost_model.group_by_hash(
                child.properties.cardinality,
                output_rows,
                planner.pages_for(output_rows),
            )
        else:
            kind = OpKind.DISTINCT_SORTED
            cost = child.cost + planner.cost_model.group_by_sorted(
                child.properties.cardinality, output_rows
            )
        return PlanNode(kind, (child,), properties, cost, {})

    if general_satisfies(config, general, projected.order, context):
        variants.append(distinct_node(projected, hash_based=False))
    else:
        if config.effective("enable_cover") and not planner.block.order_by.is_empty():
            aligned = general.aligned_with(planner.block.order_by, context)
        else:
            aligned = None
        target = aligned if aligned is not None else general.concrete(
            context, hint=planner.block.order_by or None
        )
        if not config.effective("enable_general_orders"):
            target = OrderSpec.of(*columns)
        if not target.is_empty() and target.subset_columns(columns):
            sorted_child = make_sort(planner, projected, target, "distinct")
            variants.append(distinct_node(sorted_child, hash_based=False))
    if config.enable_hash_group_by or not variants:
        variants.append(distinct_node(projected, hash_based=True))
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


def _final_projection(
    planner: PlannerContext, plan: PlanNode, mark_projected: bool = False
) -> PlanNode:
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

