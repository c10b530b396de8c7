"""Translate optimizer plans into executable operator trees.

Host variables (``:name`` parameters) stay as ``Parameter`` nodes in
the operator tree: planning treated them as opaque constants (§4.1),
and execution resolves them through the thread-local binding scope
(:mod:`repro.expr.bindings`) — per evaluation in the interpreter, once
per block in the block kernels. Keeping the nodes in
place means the compiled kernels — memoized per (expression, schema) —
are reused verbatim across executions with different bindings, which is
what makes the plan cache's re-binding free.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cost.estimate import SelectivityEstimator, StatsView
from repro.errors import ExecutionError
from repro.executor.aggregate import (
    HashDistinctOp,
    HashGroupByOp,
    SortedDistinctOp,
    SortedGroupByOp,
)
from repro.executor.joins import (
    HashJoinOp,
    MergeJoinOp,
    NestedLoopIndexJoinOp,
    NestedLoopJoinOp,
)
from repro.executor.operators import (
    ConcatOp,
    FilterOp,
    IndexScanOp,
    LimitOp,
    PhysicalOperator,
    ProjectOp,
    SortOp,
    TableScanOp,
)
from repro.expr.nodes import ColumnRef
from repro.expr.schema import RowSchema
from repro.optimizer.plan import OpKind, Plan, PlanNode
from repro.storage import Database


def _plan_tables(
    node: PlanNode, database: Database, tables: Dict[str, object]
) -> None:
    """Collect alias -> TableSchema for every base-table access in the
    plan, feeding filter-term selectivity estimation."""
    if node.kind in (
        OpKind.TABLE_SCAN,
        OpKind.INDEX_SCAN,
        OpKind.NLJ_INDEX,
        OpKind.PARTITION_SCAN,
    ):
        alias = node.args.get("alias")
        name = node.args.get("table")
        if alias is not None and name is not None:
            tables[alias] = database.catalog.table(name)
    for child in node.children:
        _plan_tables(child, database, tables)


def build_operator(
    node: PlanNode,
    database: Database,
    estimator: Optional[SelectivityEstimator] = None,
    node_map: Optional[Dict[int, PhysicalOperator]] = None,
) -> PhysicalOperator:
    """Recursively build the physical operator for one plan node.

    ``estimator`` (optional) supplies the catalog-stats selectivities a
    filter's block kernel orders its terms by when it is compiled;
    without it every term ranks at the default selectivity, 0.5.
    ``node_map`` (optional) records ``id(plan_node) -> operator`` for
    every node built, letting the workload loop join plan estimates
    against executed metrics.
    """
    operator = _build_node(node, database, estimator, node_map)
    if node_map is not None:
        node_map[id(node)] = operator
    return operator


def _build_node(
    node: PlanNode,
    database: Database,
    estimator: Optional[SelectivityEstimator],
    node_map: Optional[Dict[int, PhysicalOperator]],
) -> PhysicalOperator:
    args = dict(node.args)
    kind = node.kind
    children = [
        build_operator(child, database, estimator, node_map)
        for child in node.children
    ]
    if kind is OpKind.TABLE_SCAN:
        return TableScanOp(args["table"], args["alias"], node.properties.schema)
    if kind is OpKind.INDEX_SCAN:
        return IndexScanOp(
            table_name=args["table"],
            index_name=args["index"],
            alias=args["alias"],
            schema=node.properties.schema,
            low=args.get("low"),
            high=args.get("high"),
            low_inclusive=args.get("low_inclusive", True),
            high_inclusive=args.get("high_inclusive", True),
            descending=args.get("descending", False),
            partition=args.get("partition"),
        )
    if kind is OpKind.FILTER:
        return FilterOp(
            children[0],
            args["predicate"],
            estimator.selectivity if estimator is not None else None,
        )
    if kind is OpKind.PROJECT:
        return ProjectOp(
            children[0], args["expressions"], node.properties.schema
        )
    if kind in (OpKind.SORT, OpKind.PARTIAL_SORT, OpKind.TOPN):
        # One enforcer: a full sort is a partial sort with an empty
        # prefix, and a Top-N sort is one under a limit.
        return SortOp(
            children[0],
            args["order"],
            args.get("prefix", 0),
            limit=args.get("limit"),
        )
    if kind is OpKind.NLJ:
        return NestedLoopJoinOp(
            children[0],
            children[1],
            args.get("predicate"),
            left_outer=args.get("left_outer", False),
        )
    if kind is OpKind.NLJ_INDEX:
        alias = args["alias"]
        table = database.catalog.table(args["table"])
        inner_schema = RowSchema(
            ColumnRef(alias, column.name) for column in table.columns
        )
        return NestedLoopIndexJoinOp(
            outer=children[0],
            table_name=args["table"],
            index_name=args["index"],
            alias=alias,
            inner_schema=inner_schema,
            probe_columns=args["probe_columns"],
            residual=args.get("residual"),
            ordered=args.get("ordered", False),
            left_outer=args.get("left_outer", False),
        )
    if kind is OpKind.MERGE_JOIN:
        return MergeJoinOp(
            children[0],
            children[1],
            args["outer_keys"],
            args["inner_keys"],
            args.get("residual"),
        )
    if kind is OpKind.HASH_JOIN:
        return HashJoinOp(
            children[0],
            children[1],
            args["outer_keys"],
            args["inner_keys"],
            args.get("residual"),
            left_outer=args.get("left_outer", False),
        )
    if kind is OpKind.CONCAT:
        return ConcatOp(children, node.properties.schema)
    if kind is OpKind.LIMIT:
        return LimitOp(children[0], args["count"])
    if kind is OpKind.GROUP_SORTED:
        return SortedGroupByOp(
            children[0], args["group_columns"], args["aggregates"]
        )
    if kind is OpKind.GROUP_HASH:
        return HashGroupByOp(
            children[0], args["group_columns"], args["aggregates"]
        )
    if kind is OpKind.DISTINCT_SORTED:
        return SortedDistinctOp(children[0])
    if kind is OpKind.DISTINCT_HASH:
        return HashDistinctOp(children[0])
    if kind is OpKind.PARTITION_SCAN:
        from repro.executor.exchange import PartitionScanOp

        return PartitionScanOp(
            args["table"],
            args["alias"],
            node.properties.schema,
            args["partitions"],
        )
    if kind is OpKind.MERGE_EXCHANGE:
        from repro.executor.exchange import MergeExchangeOp

        return MergeExchangeOp(
            children, node.properties.schema, args["order"]
        )
    raise ExecutionError(f"cannot build operator for {kind}")


def build_executor(
    plan: Plan,
    database: Database,
    node_map: Optional[Dict[int, PhysicalOperator]] = None,
) -> PhysicalOperator:
    """Operator tree for a whole plan.

    Host variables resolve per execution — install bindings with
    :func:`repro.expr.bindings.parameter_scope` around ``execute``.
    """
    tables: Dict[str, object] = {}
    _plan_tables(plan.root, database, tables)
    estimator = (
        SelectivityEstimator(
            StatsView(tables, overrides=database.catalog.stats_overrides)
        )
        if tables
        else None
    )
    return build_operator(plan.root, database, estimator, node_map=node_map)
