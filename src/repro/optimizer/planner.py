"""Shared planning state and single-table access path generation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.catalog import Index, TableSchema
from repro.core.context import OrderContext
from repro.core.homogenize import homogenize_order
from repro.core.instrument import count
from repro.core.od import EMPTY_ODS, ODSet
from repro.core.ordering import OrderSpec
from repro.cost.estimate import SelectivityEstimator, StatsView
from repro.cost.model import CostModel
from repro.expr.analysis import (
    analyze_predicates,
    columns_of,
    conjuncts_of,
    is_column_constant_equality,
    is_column_parameter_equality,
)
from repro.expr.nodes import (
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    Literal,
    Parameter,
)
from repro.optimizer.config import OptimizerConfig, PlannerStats
from repro.optimizer.plan import OpKind, PlanNode
from repro.properties.odharvest import harvest_expression_ods
from repro.properties.propagate import (
    base_table_properties,
    propagate_filter,
    propagate_sort,
)
from repro.qgm.block import QueryBlock
from repro.storage import Database


@dataclass
class PlannerContext:
    """Everything shared across one planning run."""

    database: Database
    config: OptimizerConfig
    block: QueryBlock
    cost_model: CostModel
    stats_view: StatsView
    estimator: SelectivityEstimator
    # Conjuncts of the WHERE clause, split by the aliases they touch.
    local_predicates: Dict[str, List[Expression]] = field(default_factory=dict)
    # Join conjuncts, each with the aliases it touches (worked out once).
    join_predicates: List[Tuple[Expression, FrozenSet[str]]] = field(
        default_factory=list
    )
    # WHERE conjuncts touching a null-supplying (outer-joined) alias:
    # they filter *after* padding, so they must not be pushed below the
    # outer join.
    post_join_predicates: List[Expression] = field(default_factory=list)
    # Interesting (sort-ahead) orders produced by the order scan.
    interesting_orders: List[OrderSpec] = field(default_factory=list)
    # The optimistic context: all predicates assumed applied, all base
    # keys known (Section 5.1's order-scan assumption).
    optimistic: OrderContext = field(default_factory=OrderContext)
    # ODs harvested from monotonic computed select items (e.g.
    # ``val + 1 AS v``); empty when ``use_order_dependencies`` is off.
    block_ods: ODSet = EMPTY_ODS
    stats: PlannerStats = field(default_factory=PlannerStats)
    # alias -> pre-planned access path for derived tables (set by the
    # Optimizer facade before enumeration).
    derived_plans: Dict[str, List["PlanNode"]] = field(default_factory=dict)
    # available-column-set -> interesting orders homogenized to it
    # (aligned with ``interesting_orders``; None where impossible). Every
    # join pair over the same DP subset shares one entry.
    _homogenized_cache: Dict[FrozenSet[ColumnRef], Tuple[Optional[OrderSpec], ...]] = field(
        default_factory=dict
    )
    # Order-enforcement answers per input plan node (see
    # ``enumerate._once_per_plan``), and join cardinality per alias set.
    per_plan_memo: Dict[tuple, tuple] = field(default_factory=dict)
    _subset_rows: Dict[frozenset, float] = field(default_factory=dict)

    def homogenized_interesting(
        self, available: Iterable[ColumnRef]
    ) -> Tuple[Optional[OrderSpec], ...]:
        """The block's interesting orders homogenized onto ``available``.

        Homogenization is always against the optimistic context
        (Section 5.1's assumption), so the answer depends only on the
        available column set — which repeats for every plan pair of
        every DP subset with the same schema. Cached per column set.
        """
        key = (
            available
            if isinstance(available, frozenset)
            else frozenset(available)
        )
        count("planner.homogenized_calls")
        cached = self._homogenized_cache.get(key)
        if cached is None:
            cached = tuple(
                homogenize_order(interesting, key, self.optimistic)
                for interesting in self.interesting_orders
            )
            self._homogenized_cache[key] = cached
        else:
            count("planner.homogenized_memo_hits")
        return cached

    @classmethod
    def build(
        cls,
        database: Database,
        config: OptimizerConfig,
        block: QueryBlock,
        cost_model: Optional[CostModel] = None,
        derived_plans: Optional[Dict[str, List["PlanNode"]]] = None,
    ) -> "PlannerContext":
        tables_by_alias = {
            alias: database.catalog.table(table_name)
            for alias, table_name in block.tables.items()
            if not block.is_derived(alias)
        }
        stats_view = StatsView(
            tables_by_alias, overrides=database.catalog.stats_overrides
        )
        context = cls(
            database=database,
            config=config,
            block=block,
            cost_model=cost_model or CostModel(),
            stats_view=stats_view,
            estimator=SelectivityEstimator(stats_view),
            derived_plans=dict(derived_plans or {}),
        )
        context._split_predicates()
        context._harvest_block_ods()
        context._build_optimistic_context()
        return context

    def _split_predicates(self) -> None:
        self.local_predicates = {alias: [] for alias in self.block.tables}
        null_aliases = self.block.null_supplying_aliases()
        first_alias = next(iter(self.block.tables))
        for conjunct in conjuncts_of(self.block.predicate):
            aliases = {column.qualifier for column in columns_of(conjunct)}
            aliases.discard("")
            if aliases & null_aliases:
                self.post_join_predicates.append(conjunct)
            elif len(aliases) == 1:
                self.local_predicates[next(iter(aliases))].append(conjunct)
            elif not aliases:
                # Column-free conjunct (e.g. "1 = 2", ":p = 5"): evaluate
                # once at the first table's access path.
                self.local_predicates[first_alias].append(conjunct)
            else:
                self.join_predicates.append((conjunct, frozenset(aliases)))

    def column_nullable(self, column: ColumnRef) -> bool:
        """Conservatively: can this column carry NULLs at this block?

        Anything not traceable to a declared NOT NULL base-table column
        — derived-table outputs, unknown qualifiers, columns of a
        null-supplying (outer-joined) alias — counts as nullable. The
        OD harvest uses this to refuse direction-flipping edges whose
        NULL rows would land at the wrong end of the flipped order.
        """
        alias = column.qualifier
        if alias not in self.block.tables or self.block.is_derived(alias):
            return True
        if alias in self.block.null_supplying_aliases():
            return True
        table = self.table_for(alias)
        if not table.has_column(column.name):
            return True
        return table.column(column.name).nullable

    def _harvest_block_ods(self) -> None:
        """ODs from the block's computed select items (gated).

        ``val + 1 AS v`` order-equates ``r.val`` and the output column
        ``("", "v")``; ``year(d) AS y`` adds the one-way ``d |-> y``.
        These feed the optimistic context (so the order scan can push a
        sort on ``val`` down for ``ORDER BY v``) and the final
        ORDER-BY/projection steps in finalize.
        """
        if not self.config.effective("use_order_dependencies"):
            self.block_ods = EMPTY_ODS
            return
        self.block_ods = harvest_expression_ods(
            (
                (item.expression, item.output)
                for item in self.block.select_items
            ),
            nullable=self.column_nullable,
        )

    def alias_columns(self, alias: str) -> Tuple[ColumnRef, ...]:
        """The columns one quantifier contributes to the join box."""
        if self.block.is_derived(alias):
            return tuple(self.derived_plans[alias][0].properties.schema.columns)
        return tuple(
            ColumnRef(alias, name) for name in self.table_for(alias).column_names
        )

    def _build_optimistic_context(self) -> None:
        """All predicates assumed applied + every quantifier's keys (§5.1).

        A key determines the columns *of its own quantifier* (§4.1): one
        customer has many orders, so ``{c_custkey} -> *`` over the join
        box would be false. The join's equivalences carry a key further
        (``o_orderkey = l_orderkey`` plus ``{o_orderkey} -> orders.*``).
        Outer-join ON equalities contribute only their one-directional
        FD (§4.1) — never an equivalence class. Its determinant is every
        preserved-side column the ON clause reads, not just the equated
        one: under ``ON d.grp = f.k AND d.name = 'n1'`` two rows with one
        ``grp`` can differ in whether they matched.
        """
        from repro.core.fd import FDSet, fd
        from repro.expr.analysis import analyze_predicates as analyze

        facts = analyze_predicates(conjuncts_of(self.block.predicate))
        extra = FDSet()
        for alias in self.block.tables:
            if self.block.is_derived(alias):
                keys = self.derived_plans[alias][0].properties.key_property.keys
            else:
                keys = [
                    [ColumnRef(alias, name) for name in key]
                    for key in self.table_for(alias).keys()
                ]
            columns = self.alias_columns(alias)
            for key in keys:
                extra = extra.add(fd(key, columns))
        for alias, on_predicate in self.block.outer_joins.items():
            preserved = [
                column
                for column in columns_of(on_predicate)
                if column.qualifier != alias
            ]
            for left, right in analyze([on_predicate]).equalities:
                if right.qualifier == alias and left.qualifier != alias:
                    extra = extra.add(fd(preserved, [right]))
                elif left.qualifier == alias and right.qualifier != alias:
                    extra = extra.add(fd(preserved, [left]))
        self.optimistic = OrderContext.from_facts(
            facts, extra_fds=extra, ods=self.block_ods
        )

    # ------------------------------------------------------------------
    # Cardinalities
    # ------------------------------------------------------------------

    def base_cardinality(self, alias: str) -> float:
        """Rows surviving the local predicates of one quantifier."""
        if alias in self.derived_plans:
            rows = self.derived_plans[alias][0].properties.cardinality
        else:
            rows = float(self.stats_view.row_count(alias))
        # The whole local-predicate list is one observed unit (it
        # becomes a single FILTER node), so feedback overrides are
        # consulted for the conjunction before falling back to the
        # per-predicate independence product.
        rows *= self.estimator.conjunction_selectivity(
            self.local_predicates.get(alias, ())
        )
        return max(1.0, rows)

    def is_derived(self, alias: str) -> bool:
        return self.block.is_derived(alias)

    def subset_cardinality(self, aliases: frozenset) -> float:
        """Estimated rows for the join of ``aliases``.

        Deliberately order-independent so DP subplans agree — and so
        computed once per alias set.
        """
        cached = self._subset_rows.get(aliases)
        if cached is not None:
            return cached
        rows = 1.0
        for alias in aliases:
            rows *= self.base_cardinality(alias)
        for predicate, touched in self.join_predicates:
            if touched <= aliases:
                rows *= self.estimator.selectivity(predicate)
        self._subset_rows[aliases] = rows = max(1.0, rows)
        return rows

    def pages_for(self, rows: float, alias_count: int = 1) -> float:
        """Crude page estimate for intermediate results."""
        return max(1.0, rows / 64.0)

    def table_for(self, alias: str) -> TableSchema:
        return self.database.catalog.table(self.block.tables[alias])


# ----------------------------------------------------------------------
# Sargable predicate extraction
# ----------------------------------------------------------------------


@dataclass
class SargableBounds:
    """Index bounds mined from local predicates."""

    low: Optional[Tuple[Any, ...]] = None
    high: Optional[Tuple[Any, ...]] = None
    low_inclusive: bool = True
    high_inclusive: bool = True
    covered: List[Expression] = field(default_factory=list)

    def is_bounded(self) -> bool:
        return self.low is not None or self.high is not None


def extract_sargable(
    index: Index, alias: str, predicates: Sequence[Expression]
) -> SargableBounds:
    """Match predicates against an index key prefix.

    Leading columns bound by equality extend both bounds; the first
    range-bound column closes the prefix.
    """
    bounds = SargableBounds()
    equal_prefix: List[Any] = []
    remaining = list(predicates)
    for key_column in index.key:
        column = ColumnRef(alias, key_column.name)
        eq_value, eq_predicate = _find_equality(column, remaining)
        if eq_predicate is not None:
            equal_prefix.append(eq_value)
            bounds.covered.append(eq_predicate)
            remaining.remove(eq_predicate)
            continue
        low, high, low_inc, high_inc, covered = _find_range(column, remaining)
        if covered:
            if low is not None:
                bounds.low = tuple(equal_prefix + [low])
                bounds.low_inclusive = low_inc
            elif equal_prefix:
                bounds.low = tuple(equal_prefix)
            if high is not None:
                bounds.high = tuple(equal_prefix + [high])
                bounds.high_inclusive = high_inc
            elif equal_prefix:
                bounds.high = tuple(equal_prefix)
            bounds.covered.extend(covered)
            return bounds
        break
    if equal_prefix:
        bounds.low = tuple(equal_prefix)
        bounds.high = tuple(equal_prefix)
    return bounds


def _find_equality(
    column: ColumnRef, predicates: Sequence[Expression]
) -> Tuple[Any, Optional[Expression]]:
    for predicate in predicates:
        matched = is_column_constant_equality(predicate)
        if matched is not None and matched[0] == column:
            return matched[1].value, predicate
        # Host variables are constants whose value arrives at execution
        # (§4.1): keep the Parameter node in the bound tuple and let the
        # index scan resolve it from the active binding scope.
        parameter = is_column_parameter_equality(predicate)
        if parameter is not None and parameter[0] == column:
            return parameter[1], predicate
    return None, None


def _find_range(
    column: ColumnRef, predicates: Sequence[Expression]
) -> Tuple[Any, Any, bool, bool, List[Expression]]:
    low = high = None
    low_inc = high_inc = True
    covered: List[Expression] = []
    for predicate in predicates:
        if not isinstance(predicate, Comparison):
            continue
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(right, ColumnRef) and isinstance(
            left, (Literal, Parameter)
        ):
            left, right = right, left
            op = op.flipped()
        if left != column or not isinstance(right, (Literal, Parameter)):
            continue
        value = right if isinstance(right, Parameter) else right.value
        if op in (ComparisonOp.GT, ComparisonOp.GE) and low is None:
            low, low_inc = value, op is ComparisonOp.GE
            covered.append(predicate)
        elif op in (ComparisonOp.LT, ComparisonOp.LE) and high is None:
            high, high_inc = value, op is ComparisonOp.LE
            covered.append(predicate)
    return low, high, low_inc, high_inc, covered


# ----------------------------------------------------------------------
# Access paths
# ----------------------------------------------------------------------


def access_paths(planner: PlannerContext, alias: str) -> List[PlanNode]:
    """All single-table plans for one quantifier, filters applied."""
    if planner.is_derived(alias):
        variants = [
            _apply_filters(
                planner,
                node,
                planner.local_predicates.get(alias, []),
                planner.base_cardinality(alias),
            )
            for node in planner.derived_plans[alias]
        ]
        planner.stats.plans_generated += len(variants)
        return variants
    table = planner.table_for(alias)
    predicates = planner.local_predicates.get(alias, [])
    filtered_rows = planner.base_cardinality(alias)
    plans: List[PlanNode] = [
        _table_scan_plan(planner, alias, table, predicates, filtered_rows)
    ]
    if table.partitioning is None:
        for index in planner.database.catalog.indexes_on(table.name):
            plans.append(
                _index_scan_plan(
                    planner, alias, table, index, predicates, filtered_rows,
                    descending=False,
                )
            )
            if _descending_scan_useful(planner, index, alias):
                plans.append(
                    _index_scan_plan(
                        planner, alias, table, index, predicates,
                        filtered_rows, descending=True,
                    )
                )
    else:
        # Indexes on a partitioned table are *local* (one B-tree per
        # partition): a globally ordered scan is inherently a k-way
        # merge, which is an exchange — offered by the partitioned
        # access paths below when partitioning is enabled, and not at
        # all otherwise (point probes for index NLJ still work). Lazy
        # import: parallel builds on this module.
        from repro.optimizer.parallel import partitioned_access_paths

        plans.extend(partitioned_access_paths(planner, alias, table))
    planner.stats.plans_generated += len(plans)
    return plans


def _descending_scan_useful(
    planner: PlannerContext, index: Index, alias: str
) -> bool:
    """Backward scans only when some interesting order starts descending
    where the index is ascending (or vice versa)."""
    if not planner.config.order_optimization:
        return False
    reversed_spec = index.order_spec(alias).reversed()
    if reversed_spec.is_empty():
        return False
    head = reversed_spec.head()
    for interesting in planner.interesting_orders:
        if interesting and interesting.head() == head:
            return True
    return False


def _apply_filters(
    planner: PlannerContext,
    node: PlanNode,
    predicates: Sequence[Expression],
    final_rows: float,
) -> PlanNode:
    if not predicates:
        return node
    predicate = predicates[0]
    for extra in predicates[1:]:
        from repro.expr.nodes import BooleanExpr, BooleanOp

        predicate = BooleanExpr(BooleanOp.AND, (predicate, extra))
    properties = propagate_filter(node.properties, predicate, final_rows)
    cost = node.cost + planner.cost_model.filter_rows(
        node.properties.cardinality
    )
    return PlanNode(
        OpKind.FILTER,
        (node,),
        properties,
        cost,
        {"predicate": predicate},
    )


def _table_scan_plan(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    predicates: Sequence[Expression],
    filtered_rows: float,
) -> PlanNode:
    properties = base_table_properties(alias, table)
    cost = planner.cost_model.table_scan(
        table.stats.pages, table.stats.row_count
    )
    node = PlanNode(
        OpKind.TABLE_SCAN,
        (),
        properties,
        cost,
        {"table": table.name, "alias": alias},
    )
    return _apply_filters(planner, node, predicates, filtered_rows)


def _index_scan_plan(
    planner: PlannerContext,
    alias: str,
    table: TableSchema,
    index: Index,
    predicates: Sequence[Expression],
    filtered_rows: float,
    descending: bool,
) -> PlanNode:
    bounds = extract_sargable(index, alias, predicates)
    covered_selectivity = 1.0
    for predicate in bounds.covered:
        covered_selectivity *= planner.estimator.selectivity(predicate)
    matched_rows = max(1.0, table.stats.row_count * covered_selectivity)
    tree = planner.database.store(table.name).indexes.get(index.name)
    height = tree[1].height if tree is not None else 2
    cost = planner.cost_model.index_scan(
        table_pages=table.stats.pages,
        table_rows=table.stats.row_count,
        matched_rows=matched_rows,
        tree_height=height,
        clustered=index.clustered,
    )
    properties = base_table_properties(alias, table).with_cardinality(
        matched_rows
    )
    spec = index.order_spec(alias)
    if descending:
        spec = spec.reversed()
    properties = propagate_sort(properties, spec)
    # Fold the covered predicates' facts into the properties (they are
    # enforced by the scan bounds, not by a filter node).
    for predicate in bounds.covered:
        properties = propagate_filter(properties, predicate, matched_rows)
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
        },
    )
    residual = [
        predicate
        for predicate in predicates
        if predicate not in bounds.covered
    ]
    return _apply_filters(planner, node, residual, filtered_rows)
