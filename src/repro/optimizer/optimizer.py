"""The optimizer facade: SQL/QGM in, executable plan out."""

from __future__ import annotations

from typing import List, Optional, Union

from repro.core.ordering import OrderSpec
from repro.cost.model import CostModel
from repro.errors import OptimizerError
from repro.expr.nodes import ColumnRef
from repro.optimizer.config import OptimizerConfig, PlannerStats
from repro.optimizer.enumerate import enumerate_joins
from repro.optimizer.finalize import finalize_plans
from repro.optimizer.order_scan import run_order_scan
from repro.optimizer.plan import Plan, PlanNode
from repro.optimizer.planner import PlannerContext
from repro.parser import Token, parse_query
from repro.qgm import normalize, rewrite
from repro.qgm.block import QueryBlock
from repro.qgm.boxes import Box, BoxQuantifier, SelectBox, SelectItem, UnionBox
from repro.storage import Database


class Optimizer:
    """Cost-based query optimizer with order optimization.

    Typical use::

        optimizer = Optimizer(database)
        plan = optimizer.plan_sql("select ... from ... order by ...")
        rows = execute_plan(plan, database)

    Pass ``OptimizerConfig.disabled()`` to reproduce the paper's
    order-optimization-disabled baseline.
    """

    def __init__(
        self,
        database: Database,
        config: Optional[OptimizerConfig] = None,
        cost_model: Optional[CostModel] = None,
    ):
        self.database = database
        self.config = config or OptimizerConfig()
        self.cost_model = cost_model or CostModel()
        self.last_stats: PlannerStats = PlannerStats()
        # The planning state of the last block planned: the statement's
        # top block once ``plan_sql`` returns (its derived tables are
        # planned before it).
        self.last_planner: Optional[PlannerContext] = None

    def plan_sql(self, sql: Union[str, List[Token]]) -> Plan:
        """Parse, rewrite, and plan a SQL query (its text or tokens)."""
        box = parse_query(sql, self.database.catalog)
        return self.plan_box(box)

    def plan_box(self, box: Box) -> Plan:
        """Rewrite and plan a QGM box tree."""
        box = _union_block(rewrite(box))
        if isinstance(box, UnionBox):
            return self._plan_union(box)
        return self.plan_block(normalize(box))

    def plan_block(self, block: QueryBlock) -> Plan:
        """Plan a normalized query block."""
        best = min(
            self._block_candidates(block), key=lambda plan: plan.cost.total_ms
        )
        names = tuple(item.name for item in block.select_items)
        return Plan(root=best, output_names=names)

    def _block_candidates(self, block: QueryBlock, extra_interesting=()):
        """All surviving full plans for a block (cheapest first not
        guaranteed). ``extra_interesting`` injects orders wanted by an
        enclosing block — the §5.1 push of interesting orders into a
        view."""
        derived_plans = {}
        for alias, box in block.derived.items():
            derived_plans[alias] = self._plan_derived(alias, box, block)
        planner = PlannerContext.build(
            self.database,
            self.config,
            block,
            self.cost_model,
            derived_plans=derived_plans,
        )
        planner.interesting_orders = run_order_scan(planner)
        for specification in extra_interesting:
            if (
                specification not in planner.interesting_orders
                and not specification.is_empty()
            ):
                planner.interesting_orders.append(specification)
        self.last_planner = planner
        join_plans = enumerate_joins(planner)
        candidates = finalize_plans(planner, join_plans)
        if not candidates:
            raise OptimizerError("no complete plan produced")
        self.last_stats = planner.stats
        return candidates

    def _plan_derived(self, alias: str, box: Box, outer_block=None):
        """Plan an unmergeable view and expose it under ``alias``.

        The sub-plan's output columns are renamed to ``alias.name``
        references; its order, key, and FD properties are translated so
        the outer block's order optimization can still exploit them.

        Returns a *list* of candidates: the cheapest plan, plus (when
        the enclosing block wants an order this view's columns could
        provide) the cheapest plan that delivers it — the paper's push
        of a sort "into a view": the outer DP decides whether the
        pre-ordered view pays for itself.
        """
        from repro.optimizer.helpers import order_satisfies
        from repro.optimizer.plan import OpKind, PlanNode
        from repro.properties.propagate import rename_properties

        def rename(sub_plan, source_columns, names):
            mapping = {
                source: ColumnRef(alias, name)
                for source, name in zip(source_columns, names)
            }
            properties = rename_properties(sub_plan.properties, mapping)
            return PlanNode(
                OpKind.PROJECT,
                (sub_plan,),
                properties,
                sub_plan.cost
                + self.cost_model.project_rows(
                    sub_plan.properties.cardinality
                ),
                {"expressions": source_columns, "derived": alias},
            )

        box = _union_block(box)
        if isinstance(box, UnionBox):
            sub_plan = self._plan_union(box).root
            source_columns = list(sub_plan.properties.schema.columns)
            names = [item.name for item in box.output_items()]
            return [rename(sub_plan, source_columns, names)]

        block = normalize(box)
        wanted = self._wanted_view_orders(alias, block, outer_block)
        candidates = self._block_candidates(block, extra_interesting=wanted)
        best = min(candidates, key=lambda plan: plan.cost.total_ms)
        chosen = [best]
        for specification in wanted:
            satisfying = [
                candidate
                for candidate in candidates
                if order_satisfies(
                    self.config,
                    specification,
                    candidate.properties.order,
                    candidate.properties.context(),
                )
            ]
            if satisfying:
                ordered_best = min(
                    satisfying, key=lambda plan: plan.cost.total_ms
                )
                if ordered_best is not best:
                    chosen.append(ordered_best)
                break

        name_by_output = {}
        for item in block.select_items:
            name_by_output.setdefault(item.output, item.name)
        renamed = []
        for sub_plan in chosen:
            source_columns = list(sub_plan.properties.schema.columns)
            names = [
                name_by_output.get(column, column.name)
                for column in source_columns
            ]
            renamed.append(rename(sub_plan, source_columns, names))
        return renamed

    def _wanted_view_orders(self, alias: str, view_block, outer_block):
        """Orders the enclosing block would like this view to provide,
        translated onto the view's own output expressions. A computed
        item like ``val + 1 AS v`` ends the wanted spec: only plain
        columns translate.
        """
        from repro.core.ordering import OrderKey

        if outer_block is None:
            return []
        expression_by_name = {}
        for item in view_block.select_items:
            expression_by_name.setdefault(item.name, item.expression)
        wanted = []
        sources = [outer_block.order_by]
        if outer_block.group_columns:
            sources.append(OrderSpec.of(*outer_block.group_columns))
        for specification in sources:
            keys = []
            for key in specification:
                if key.column.qualifier != alias:
                    break
                target = expression_by_name.get(key.column.name)
                if not isinstance(target, ColumnRef):
                    break
                keys.append(OrderKey(target, key.direction))
            if keys:
                candidate = OrderSpec(keys)
                if candidate not in wanted:
                    wanted.append(candidate)
        return wanted

    def _plan_union(self, union) -> Plan:
        """Plan UNION ALL: every branch's best plan renamed onto the
        union's output columns, then concatenated.

        Only a bare UNION ALL gets here — :func:`_union_block` turns a
        union with duplicate removal, an ORDER BY or a FETCH FIRST into
        a block over this concatenation, which finalize completes.
        """
        from repro.cost.model import Cost
        from repro.expr.schema import RowSchema
        from repro.optimizer.plan import OpKind, PlanNode
        from repro.properties.stream import StreamProperties

        union_items = list(union.output_items())
        names = tuple(item.name for item in union_items)
        common_schema = RowSchema([item.output for item in union_items])

        branch_nodes = []
        total_rows = 0.0
        for branch in union.branches:
            node = self.plan_block(normalize(branch)).root
            rows = node.properties.cardinality
            branch_nodes.append(
                PlanNode(
                    OpKind.PROJECT,
                    (node,),
                    StreamProperties(schema=common_schema, cardinality=rows),
                    node.cost + self.cost_model.project_rows(rows),
                    {
                        "expressions": list(node.properties.schema.columns),
                        "final_projection": True,
                    },
                )
            )
            total_rows += rows

        plan = PlanNode(
            OpKind.CONCAT,
            tuple(branch_nodes),
            StreamProperties(schema=common_schema, cardinality=total_rows),
            sum((node.cost for node in branch_nodes), Cost())
            + self.cost_model.project_rows(total_rows),
            {},
        )
        return Plan(root=plan, output_names=names)


# Alias of the derived UNION ALL that :func:`_union_block` ranges over.
_UNION_ALIAS = "union"


def _union_block(box: Box) -> Box:
    """A union that needs more than concatenation, as a block.

    Duplicate removal, an ORDER BY or a FETCH FIRST turn
    ``<branches> UNION [ALL] ... ORDER BY ... FETCH FIRST n`` into
    ``SELECT [DISTINCT] <outputs> FROM (<branches> UNION ALL) AS union
    ORDER BY ... FETCH FIRST n``, so finalize plans the dedupe, the sort
    and the Top-N exactly as for any other block: the dedupe sort is
    aligned with the ORDER BY (one sort serves both — the Rdb trick the
    paper cites in §2), and every sort goes through ``make_sort``. Any
    other box, a bare UNION ALL included, comes back unchanged.

    Planning-time only: ``qgm.rewrite`` keeps the union as parsed, so
    ``verify.reference`` still evaluates it independently.
    """
    if not isinstance(box, UnionBox) or (
        box.all_rows
        and box.output_order.is_empty()
        and box.fetch_first is None
    ):
        return box
    exposed = {
        item.output: ColumnRef(_UNION_ALIAS, item.name)
        for item in box.output_items()
    }
    union_all = UnionBox(box.branches, all_rows=True)
    block = SelectBox(
        [BoxQuantifier(_UNION_ALIAS, union_all)],
        [SelectItem(column, column.name) for column in exposed.values()],
        distinct=not box.all_rows,
    )
    block.output_order = OrderSpec(
        key.with_column(exposed[key.column]) for key in box.output_order
    )
    block.fetch_first = box.fetch_first
    return block
