"""Estimate-vs-actual join over an executed plan.

After a plan runs with a ``node_map`` (see
:func:`repro.executor.build.build_executor`), every plan node can be
joined against the per-operator runtime metrics the executor already
collects: estimated cardinality from ``properties.cardinality`` on one
side, actual rows produced from ``ExecutionContext.metrics`` on the
other. The q-error of that pair is the workload loop's raw signal.

Observations also carry the hooks feedback needs to act: FILTER nodes
expose their conjunction fingerprint (so observed selectivity can key
a :class:`~repro.catalog.overrides.StatsCorrections` entry) and
GROUP BY / DISTINCT nodes expose the base-table column set behind
their keys (so observed group counts can correct NDVs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cost.estimate import conjunction_fingerprint
from repro.executor.context import ExecutionContext
from repro.executor.operators import PhysicalOperator
from repro.expr.nodes import ColumnRef
from repro.optimizer.plan import OpKind, Plan, PlanNode

# Plan kinds whose args name a base table behind an alias.
_SCAN_KINDS = (
    OpKind.TABLE_SCAN,
    OpKind.INDEX_SCAN,
    OpKind.NLJ_INDEX,
    OpKind.PARTITION_SCAN,
)


def q_error(estimated: float, actual: float) -> float:
    """The symmetric ratio error, floored at one row on both sides."""
    estimate = max(1.0, float(estimated))
    observed = max(1.0, float(actual))
    return max(estimate / observed, observed / estimate)


@dataclass(frozen=True)
class NodeObservation:
    """One plan node's estimate joined with its executed reality."""

    kind: str
    label: str
    estimated_rows: float
    actual_rows: int
    input_rows: int
    q_error: float
    # FILTER nodes: the parameterized conjunction fingerprint whose
    # observed selectivity is actual_rows / input_rows.
    predicate_fingerprint: Optional[str] = None
    # GROUP/DISTINCT nodes over a single base table's columns:
    # (table_name, column_names) whose observed distinct count is
    # actual_rows.
    ndv_target: Optional[Tuple[str, Tuple[str, ...]]] = None


def _alias_tables(root: PlanNode) -> Dict[str, str]:
    """alias -> base table name for every scan in the plan."""
    tables: Dict[str, str] = {}
    seen: set = set()

    def walk(node: PlanNode) -> None:
        if id(node) in seen:
            return
        seen.add(id(node))
        if node.kind in _SCAN_KINDS:
            alias = node.args.get("alias")
            name = node.args.get("table")
            if alias is not None and name is not None:
                tables[alias] = name
        for child in node.children:
            walk(child)

    walk(root)
    return tables


def _ndv_target(
    node: PlanNode, aliases: Dict[str, str]
) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Resolve a GROUP/DISTINCT key set to (table, columns) when every
    key column comes from one base table."""
    if node.kind in (OpKind.GROUP_SORTED, OpKind.GROUP_HASH):
        columns = list(node.args.get("group_columns", ()))
    elif node.kind in (OpKind.DISTINCT_SORTED, OpKind.DISTINCT_HASH):
        columns = list(node.properties.schema.columns)
    else:
        return None
    if not columns or not all(isinstance(c, ColumnRef) for c in columns):
        return None
    qualifiers = {column.qualifier for column in columns}
    if len(qualifiers) != 1:
        return None
    table = aliases.get(next(iter(qualifiers)))
    if table is None:
        return None
    return (table, tuple(column.name for column in columns))


def observe_execution(
    plan: Plan,
    node_map: Dict[int, PhysicalOperator],
    context: ExecutionContext,
) -> List[NodeObservation]:
    """Join plan-node estimates against executed operator metrics.

    Nodes the executor never pulled (no metrics entry) are skipped —
    there is nothing actual to compare.
    """
    aliases = _alias_tables(plan.root)
    observations: List[NodeObservation] = []

    def walk(node: PlanNode) -> Optional[int]:
        children_actual = [walk(child) for child in node.children]
        operator = node_map.get(id(node))
        metrics = (
            context.metrics.get(operator) if operator is not None else None
        )
        if metrics is None:
            return None
        if metrics.rows_in > 0:
            input_rows = metrics.rows_in
        else:
            input_rows = sum(
                rows for rows in children_actual if rows is not None
            )
        fingerprint = None
        if node.kind is OpKind.FILTER:
            fingerprint = conjunction_fingerprint(node.args.get("predicate"))
        observations.append(
            NodeObservation(
                kind=node.kind.name,
                label=node.describe(),
                estimated_rows=node.properties.cardinality,
                actual_rows=metrics.rows,
                input_rows=input_rows,
                q_error=q_error(node.properties.cardinality, metrics.rows),
                predicate_fingerprint=fingerprint,
                ndv_target=_ndv_target(node, aliases),
            )
        )
        return metrics.rows

    walk(plan.root)
    return observations
