"""Planning over partitioned tables: pruned scans and the merge exchange.

Everything here is gated by ``OptimizerConfig.enable_partitioning``
(itself behind the master switch): with the feature off, a partitioned
table is planned as one sequential stream and neither plan shape
exists.

Per-partition B-trees are **local** indexes. A globally ordered index
scan over a partitioned table is inherently a k-way merge of the
per-partition cursors, so the sequential planner does not offer
whole-table index scans on partitioned tables at all (point probes
through ``PartitionedTree.probe`` still work for index nested loops).
With partitioning enabled, the merge-exchange access path below
supplies the ordered scan; without it, the planner scans and, if order
is needed, sorts — which is exactly the asymmetry the paper's
machinery should observe.

A merge exchange is an order property, not a parallelism one: a
statement runs on one thread, the exchange costs the plain sum of its
inputs plus the merge, and the stream above it is an ordinary
single stream the DP enumeration treats like any other access path.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.catalog import Index, TableSchema
from repro.catalog.partition import RANGE, PartitionSpec
from repro.core.ordering import OrderSpec
from repro.expr.nodes import ColumnRef, Expression, Parameter
from repro.optimizer.plan import OpKind, PlanNode
from repro.optimizer.planner import (
    PlannerContext,
    _apply_filters,
    _find_equality,
    _find_range,
    extract_sargable,
)
from repro.properties.propagate import (
    base_table_properties,
    propagate_filter,
    propagate_sort,
)


# ----------------------------------------------------------------------
# Partition pruning
# ----------------------------------------------------------------------


def pruned_partitions(
    spec: PartitionSpec, alias: str, predicates: Sequence[Expression]
) -> Optional[Tuple[int, ...]]:
    """Partitions that can hold qualifying rows, or None when the
    predicates say nothing about the partition key.

    Host variables (``Parameter``) never prune: the plan is cached and
    re-bound, so pruning may only use values fixed at plan time.
    """
    values = []
    for name in spec.columns:
        value, predicate = _find_equality(
            ColumnRef(alias, name), predicates
        )
        if predicate is None or isinstance(value, Parameter):
            break
        values.append(value)
    else:
        return spec.prune_equal(values)
    if spec.kind == RANGE:
        low, high, _low_inc, high_inc, covered = _find_range(
            ColumnRef(alias, spec.columns[0]), predicates
        )
        if isinstance(low, Parameter):
            low = None
        if isinstance(high, Parameter):
            high = None
        if covered and (low is not None or high is not None):
            return spec.prune_range(low, high, high_inclusive=high_inc)
    return None


# ----------------------------------------------------------------------
# Access paths
# ----------------------------------------------------------------------


def partitioned_access_paths(
    planner: PlannerContext, alias: str, table: TableSchema
) -> List[PlanNode]:
    """Pruned and ordered access paths for one partitioned quantifier.

    Two families:

    * a **pruned sequential scan** (``PARTITION_SCAN``) when the local
      predicates pin the partition key — charges exactly the pages of
      the surviving partitions;
    * a **merge exchange** over per-partition local-index scans for
      every index: each partition delivers the index order, the merge
      preserves it globally — an ordered stream with zero sorts.
    """
    spec = table.partitioning
    config = planner.config
    if spec is None or not config.effective("enable_partitioning"):
        return []
    predicates = planner.local_predicates.get(alias, [])
    filtered_rows = planner.base_cardinality(alias)
    count = spec.partition_count
    plans: List[PlanNode] = []

    pruned = pruned_partitions(spec, alias, predicates)
    if pruned is not None and len(pruned) < count:
        plans.append(
            _pruned_scan_plan(
                planner, alias, table, predicates, filtered_rows, pruned
            )
        )

    # Range specs prune the merge exchange too: it runs over the
    # surviving partitions only.
    if spec.kind == RANGE and pruned is not None:
        parts: Tuple[int, ...] = pruned
    else:
        parts = tuple(range(count))
    if not parts:
        return plans

    for index in planner.database.catalog.indexes_on(table.name):
        for descending in (False, True):
            if descending and not _descending_merge_useful(
                planner, index, alias
            ):
                continue
            plans.append(
                _merge_index_plan(
                    planner,
                    alias,
                    table,
                    index,
                    predicates,
                    filtered_rows,
                    descending,
                    parts,
                )
            )
    return plans


def _descending_merge_useful(
    planner: PlannerContext, index: Index, alias: str
) -> bool:
    reversed_spec = index.order_spec(alias).reversed()
    if reversed_spec.is_empty():
        return False
    head = reversed_spec.head()
    return any(
        interesting and interesting.head() == head
        for interesting in planner.interesting_orders
    )


def _pruned_scan_plan(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    predicates: Sequence[Expression],
    filtered_rows: float,
    pruned: Tuple[int, ...],
) -> PlanNode:
    heap = planner.database.store(table.name).heap
    pages = sum(heap.partition_page_count(p) for p in pruned)
    scanned_rows = float(
        sum(heap.partition(p).row_count for p in pruned)
    )
    properties = base_table_properties(alias, table).with_cardinality(
        max(1.0, scanned_rows)
    )
    cost = planner.cost_model.table_scan(pages, scanned_rows)
    node = PlanNode(
        OpKind.PARTITION_SCAN,
        (),
        properties,
        cost,
        {"table": table.name, "alias": alias, "partitions": tuple(pruned)},
    )
    # Pruning only skips partitions that cannot match — every local
    # predicate still applies to the rows that remain.
    final = max(1.0, min(filtered_rows, scanned_rows or 1.0))
    return _apply_filters(planner, node, predicates, final)


def _merge_index_plan(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    index: Index,
    predicates: Sequence[Expression],
    filtered_rows: float,
    descending: bool,
    parts: Tuple[int, ...],
) -> PlanNode:
    """Merge exchange over the surviving partitions' local-index scans."""
    count = table.partitioning.partition_count
    share = len(parts)
    bounds = extract_sargable(index, alias, predicates)
    covered_selectivity = 1.0
    for predicate in bounds.covered:
        covered_selectivity *= planner.estimator.selectivity(predicate)
    matched_rows = max(
        1.0, table.stats.row_count * covered_selectivity
    )
    tree = planner.database.store(table.name).indexes.get(index.name)
    height = tree[1].height if tree is not None else 2
    order = index.order_spec(alias)
    if descending:
        order = order.reversed()
    residual = [
        predicate
        for predicate in predicates
        if predicate not in bounds.covered
    ]

    children = []
    for partition in parts:
        properties = base_table_properties(alias, table).with_cardinality(
            max(1.0, matched_rows / share)
        )
        properties = propagate_sort(properties, order)
        for predicate in bounds.covered:
            properties = propagate_filter(
                properties, predicate, max(1.0, matched_rows / share)
            )
        cost = planner.cost_model.index_scan(
            # Pages per partition stay 1/count of the table — pruning
            # shrinks how many partitions are read, not their size —
            # while the surviving matches split across the pruned set.
            table_pages=max(1, table.stats.pages // count),
            table_rows=table.stats.row_count / count,
            matched_rows=matched_rows / share,
            tree_height=height,
            clustered=index.clustered,
        )
        node = PlanNode(
            OpKind.INDEX_SCAN,
            (),
            properties,
            cost,
            {
                "table": table.name,
                "index": index.name,
                "alias": alias,
                "low": bounds.low,
                "high": bounds.high,
                "low_inclusive": bounds.low_inclusive,
                "high_inclusive": bounds.high_inclusive,
                "descending": descending,
                "partition": partition,
            },
        )
        children.append(
            _apply_filters(
                planner, node, residual, max(1.0, filtered_rows / share)
            )
        )
    if share == 1:
        # Pruned to one partition: its local-index scan already delivers
        # the order; a one-way merge is illegal.
        return children[0]
    return merge_plan(planner, tuple(children), filtered_rows, order)


# ----------------------------------------------------------------------
# Exchange construction
# ----------------------------------------------------------------------


def merge_plan(
    planner: PlannerContext,
    children: Tuple[PlanNode, ...],
    total_rows: float,
    order: OrderSpec,
) -> PlanNode:
    """Cap per-partition ordered streams with a merge exchange.

    Every child must already deliver ``order``; the merge interleaves
    without disturbing it, so the merged stream keeps the order
    property — no sort, which is the point. The inputs run one after
    another on the statement's thread: their costs add.
    """
    properties = children[0].properties.with_cardinality(total_rows)
    cost = children[0].cost
    for child in children[1:]:
        cost = cost + child.cost
    cost = cost + planner.cost_model.exchange_merge(total_rows, len(children))
    return PlanNode(
        OpKind.MERGE_EXCHANGE,
        children,
        properties,
        cost,
        {"order": order},
    )
