"""Plan (QEP) representation.

A :class:`PlanNode` is one operator of a query execution plan, carrying
its output :class:`~repro.properties.stream.StreamProperties` and the
cumulative :class:`~repro.cost.model.Cost` of the subtree. The tree is
immutable; the optimizer builds new nodes bottom-up, mirroring the
paper's "builds a QEP bottom-up, operator-by-operator, computing
properties as it goes".
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Set, Tuple

from repro.cost.model import Cost
from repro.expr.nodes import Expression, Parameter
from repro.properties.stream import StreamProperties


class OpKind(enum.Enum):
    """Physical operator kinds a plan node can carry."""

    TABLE_SCAN = "table scan"
    INDEX_SCAN = "index scan"
    FILTER = "filter"
    PROJECT = "project"
    SORT = "sort"
    PARTIAL_SORT = "partial sort"
    NLJ = "nested-loop join"
    NLJ_INDEX = "nested-loop join (index)"
    MERGE_JOIN = "merge-join"
    HASH_JOIN = "hash join"
    GROUP_SORTED = "group by (sorted)"
    GROUP_HASH = "group by (hash)"
    DISTINCT_SORTED = "distinct (sorted)"
    DISTINCT_HASH = "distinct (hash)"
    LIMIT = "limit"
    TOPN = "top-n sort"
    CONCAT = "concat (union all)"
    PARTITION_SCAN = "partition scan"
    MERGE_EXCHANGE = "merge exchange"


@dataclass(frozen=True)
class PlanNode:
    """One operator with children, output properties, and subtree cost."""

    kind: OpKind
    children: Tuple["PlanNode", ...]
    properties: StreamProperties
    cost: Cost
    args: Dict[str, Any] = field(default_factory=dict, compare=False)

    @property
    def order(self):
        return self.properties.order

    def aliases(self) -> frozenset:
        """Quantifier aliases contributing to this subtree.

        A derived-table node is a boundary: it contributes its exposed
        alias, not the base tables of its sub-plan.
        """
        if "derived" in self.args:
            return frozenset((self.args["derived"],))
        if self.kind in (
            OpKind.TABLE_SCAN,
            OpKind.INDEX_SCAN,
            OpKind.PARTITION_SCAN,
        ):
            return frozenset((self.args["alias"],))
        merged = frozenset()
        for child in self.children:
            merged |= child.aliases()
        if self.kind is OpKind.NLJ_INDEX:
            merged |= frozenset((self.args["alias"],))
        return merged

    def describe(self) -> str:
        """One-line description for explain output."""
        kind = self.kind.value
        if self.kind is OpKind.TABLE_SCAN:
            return f"{kind} {self.args['table']} as {self.args['alias']}"
        if self.kind is OpKind.INDEX_SCAN:
            direction = " backward" if self.args.get("descending") else ""
            partition = self.args.get("partition")
            part = f" [part {partition}]" if partition is not None else ""
            return (
                f"{kind} {self.args['index']} on {self.args['table']} "
                f"as {self.args['alias']}{direction}{part}"
            )
        if self.kind is OpKind.SORT:
            reason = self.args.get("reason")
            suffix = f" [{reason}]" if reason else ""
            return f"{kind} {self.args['order']}{suffix}"
        if self.kind is OpKind.PARTIAL_SORT:
            reason = self.args.get("reason")
            suffix = f" [{reason}]" if reason else ""
            limit = self.args.get("limit")
            if limit is not None:
                suffix = f" limit {limit}{suffix}"
            return (
                f"{kind} {self.args['order']} "
                f"(prefix {self.args['prefix']}){suffix}"
            )
        if self.kind is OpKind.FILTER:
            return f"{kind} [{self.args['predicate']}]"
        if self.kind is OpKind.NLJ_INDEX:
            marker = "ordered " if self.args.get("ordered") else ""
            outer_marker = " (left outer)" if self.args.get("left_outer") else ""
            probes = ", ".join(str(c) for c in self.args["probe_columns"])
            return (
                f"{marker}{kind}{outer_marker} probe {self.args['index']} "
                f"on {self.args['table']} as {self.args['alias']} [{probes}]"
            )
        if self.kind in (OpKind.MERGE_JOIN, OpKind.HASH_JOIN):
            pairs = ", ".join(
                f"{outer} = {inner}"
                for outer, inner in zip(
                    self.args["outer_keys"], self.args["inner_keys"]
                )
            )
            outer_marker = " (left outer)" if self.args.get("left_outer") else ""
            return f"{kind}{outer_marker} [{pairs}]"
        if self.kind is OpKind.NLJ and self.args.get("left_outer"):
            return f"{kind} (left outer)"
        if self.kind is OpKind.LIMIT:
            return f"{kind} {self.args['count']}"
        if self.kind is OpKind.TOPN:
            return f"top-{self.args['limit']} sort {self.args['order']}"
        if self.kind in (OpKind.GROUP_SORTED, OpKind.GROUP_HASH):
            inner = ", ".join(str(c) for c in self.args["group_columns"])
            return f"{kind} [{inner}]"
        if self.kind is OpKind.PROJECT:
            inner = ", ".join(
                str(c) for c in self.properties.schema.columns
            )
            return f"{kind} [{inner}]"
        if self.kind is OpKind.PARTITION_SCAN:
            parts = ",".join(str(p) for p in self.args["partitions"])
            return (
                f"{kind} {self.args['table']} as {self.args['alias']} "
                f"[parts {parts}]"
            )
        if self.kind is OpKind.MERGE_EXCHANGE:
            return (
                f"{kind} {self.args['order']} "
                f"({len(self.children)} streams)"
            )
        return kind

    def explain(
        self,
        indent: int = 0,
        show_order: bool = True,
        show_cost: bool = False,
    ) -> str:
        line = " " * indent + self.describe()
        if show_order and not self.properties.order.is_empty():
            line += f"  {{order: {self.properties.order}}}"
        if show_cost:
            line += (
                f"  [rows={self.properties.cardinality:.0f}, "
                f"cost={self.cost.total_ms:.1f}ms]"
            )
        lines = [line]
        for child in self.children:
            lines.append(child.explain(indent + 2, show_order, show_cost))
        return "\n".join(lines)

    def find_all(self, kind: OpKind) -> List["PlanNode"]:
        """All nodes of a given kind (plan-shape assertions in tests)."""
        found = [self] if self.kind is kind else []
        for child in self.children:
            found.extend(child.find_all(kind))
        return found

    def sort_count(self) -> int:
        return len(self.find_all(OpKind.SORT))

    def partial_sort_count(self) -> int:
        return len(self.find_all(OpKind.PARTIAL_SORT))


def _collect_parameters(value: Any, names: Set[str]) -> None:
    """Host-variable names under ``value``: a plan node (children and
    args), an expression, or a list/tuple of either."""
    if isinstance(value, Parameter):
        names.add(value.name)
    elif isinstance(value, Expression):
        for child in value.children():
            _collect_parameters(child, names)
    elif isinstance(value, PlanNode):
        _collect_parameters(value.children, names)
        _collect_parameters(tuple(value.args.values()), names)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _collect_parameters(item, names)


@dataclass
class Plan:
    """A complete query execution plan."""

    root: PlanNode
    output_names: Tuple[str, ...]

    @property
    def cost(self) -> Cost:
        return self.root.cost

    @cached_property
    def parameter_names(self) -> Tuple[str, ...]:
        """Every host variable an execution must bind, sorted — filter
        and join predicates, projections, aggregate arguments and index
        bounds alike (computed once; cached plans are re-bound)."""
        names: Set[str] = set()
        _collect_parameters(self.root, names)
        return tuple(sorted(names))

    def explain(self, show_order: bool = True, show_cost: bool = False) -> str:
        return self.root.explain(show_order=show_order, show_cost=show_cost)

    def fingerprint(self) -> str:
        """Structural identity: operator tree shape plus operator args.

        Deliberately excludes costs, estimated rows, and order
        annotations, so re-costing a plan under corrected statistics
        changes the fingerprint only when the chosen *operators*
        change — the workload loop's plan-change detector.
        """
        text = self.root.explain(show_order=False, show_cost=False)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]

    def sort_count(self) -> int:
        return self.root.sort_count()

    def partial_sort_count(self) -> int:
        return self.root.partial_sort_count()

    def find_all(self, kind: OpKind) -> List[PlanNode]:
        return self.root.find_all(kind)
