"""Cardinality estimation: System-R style selectivities from statistics."""

from __future__ import annotations

from dataclasses import replace as _replace
from typing import Any, Dict, Iterable, Optional, Sequence, Union

from repro.catalog import ColumnStats, StatsOverrides, TableSchema
from repro.expr.analysis import conjuncts_of
from repro.expr.nodes import (
    BooleanExpr,
    BooleanOp,
    ColumnRef,
    Comparison,
    ComparisonOp,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
    Parameter,
)

DEFAULT_EQ_SELECTIVITY = 0.1
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_OTHER_SELECTIVITY = 0.5


def predicate_fingerprint(predicate: Expression) -> str:
    """Stable text form of one predicate's *parameterized* shape.

    Every expression node renders deterministically via ``__str__``,
    and host variables render as ``:name`` — so all bindings of one
    auto-parameterized statement class share a fingerprint. Feedback
    selectivity overrides key on this: a plan-time estimate can never
    depend on one binding's value (plans are cached and re-bound), so
    the override must summarize the whole statement class.
    """
    return str(predicate)


def conjunction_fingerprint(
    predicate: Union[Expression, Sequence[Expression], None]
) -> Optional[str]:
    """Order-insensitive fingerprint of a conjunction.

    Accepts a single predicate (flattened through its AND structure) or
    a sequence of conjuncts; both forms of the same condition — one
    combined ``AND`` expression in a FILTER node versus the planner's
    list of local predicates — map to the same key.
    """
    if predicate is None:
        return None
    if isinstance(predicate, Expression):
        conjuncts = conjuncts_of(predicate)
    else:
        conjuncts = []
        for part in predicate:
            conjuncts.extend(conjuncts_of(part))
    if not conjuncts:
        return None
    return " & ".join(sorted(predicate_fingerprint(c) for c in conjuncts))


class StatsView:
    """Maps qualified column references to their base-table statistics.

    When constructed with the catalog's :class:`StatsOverrides`, the
    view splices workload-feedback corrections in front of the
    collected statistics: NDV overrides replace ``ColumnStats.ndv``,
    joint-NDV overrides answer before the sample-based estimator, and
    observed selectivities are exposed for the estimator's
    fingerprint lookup.
    """

    def __init__(
        self,
        tables_by_alias: Dict[str, TableSchema],
        overrides: Optional[StatsOverrides] = None,
    ):
        self._tables = dict(tables_by_alias)
        self._overrides = overrides
        self._adjusted: Dict[Any, ColumnStats] = {}

    def table(self, alias: str) -> Optional[TableSchema]:
        return self._tables.get(alias)

    def column_stats(self, column: ColumnRef) -> Optional[ColumnStats]:
        table = self._tables.get(column.qualifier)
        if table is None or not table.has_column(column.name):
            return None
        stats = table.stats.column(column.name)
        if self._overrides is not None:
            adjusted = self._overrides.ndv(table.name, column.name)
            if adjusted is not None:
                key = (table.name, column.name)
                cached = self._adjusted.get(key)
                if cached is None:
                    cached = _replace(stats, ndv=max(1, round(adjusted)))
                    self._adjusted[key] = cached
                return cached
        return stats

    def row_count(self, alias: str) -> int:
        table = self._tables.get(alias)
        return table.stats.row_count if table is not None else 0

    def joint_ndv(self, columns: Sequence[ColumnRef]) -> Optional[float]:
        """Joint distinct-combination estimate for a column set.

        Answers only when every column resolves to the *same* base
        table (the row sample is per-table); the caller falls back to
        the independence product otherwise.
        """
        qualifiers = {column.qualifier for column in columns}
        if len(qualifiers) != 1:
            return None
        table = self._tables.get(next(iter(qualifiers)))
        if table is None:
            return None
        names = [column.name for column in columns]
        if self._overrides is not None:
            observed = self._overrides.joint_ndv(table.name, names)
            if observed is not None:
                return max(
                    1.0, min(observed, float(max(1, table.stats.row_count)))
                )
        return table.stats.joint_ndv(names)

    def selectivity_override(
        self, fingerprint: Optional[str]
    ) -> Optional[float]:
        """Observed selectivity for a conjunction fingerprint, if any."""
        if self._overrides is None or fingerprint is None:
            return None
        return self._overrides.selectivity(fingerprint)

    def aliases(self) -> Iterable[str]:
        return self._tables.keys()


class SelectivityEstimator:
    """Estimates predicate selectivities from a :class:`StatsView`."""

    def __init__(self, stats: StatsView):
        self.stats = stats

    def selectivity(self, predicate: Optional[Expression]) -> float:
        """Selectivity of an arbitrary predicate (conjuncts multiply).

        A workload-feedback override for the predicate's conjunction
        fingerprint wins over the per-conjunct independence product:
        the override *is* the observed selectivity of exactly this
        (parameterized) condition.
        """
        if predicate is None:
            return 1.0
        observed = self.stats.selectivity_override(
            conjunction_fingerprint(predicate)
        )
        if observed is not None:
            return observed
        result = 1.0
        for conjunct in conjuncts_of(predicate):
            result *= self._conjunct_selectivity(conjunct)
        return max(1e-9, min(1.0, result))

    def conjunction_selectivity(
        self, predicates: Sequence[Expression]
    ) -> float:
        """Combined selectivity of a predicate list applied together.

        The planner's per-quantifier local predicates become one FILTER
        node, and the workload loop observes that node's combined
        selectivity — so the override lookup must see the whole
        conjunction, not each predicate separately.
        """
        if not predicates:
            return 1.0
        observed = self.stats.selectivity_override(
            conjunction_fingerprint(predicates)
        )
        if observed is not None:
            return observed
        result = 1.0
        for predicate in predicates:
            result *= self.selectivity(predicate)
        return max(1e-9, min(1.0, result))

    def _conjunct_selectivity(self, predicate: Expression) -> float:
        if isinstance(predicate, BooleanExpr) and predicate.op is BooleanOp.OR:
            # Independence-union bound.
            miss = 1.0
            for operand in predicate.operands:
                miss *= 1.0 - self.selectivity(operand)
            return 1.0 - miss
        if isinstance(predicate, Not):
            return max(0.0, 1.0 - self.selectivity(predicate.operand))
        if isinstance(predicate, IsNull):
            return self._is_null_selectivity(predicate)
        if isinstance(predicate, InList):
            if isinstance(predicate.operand, ColumnRef):
                single = self._equality_selectivity(predicate.operand)
                return min(1.0, single * max(1, len(predicate.values)))
            return DEFAULT_OTHER_SELECTIVITY
        if isinstance(predicate, Comparison):
            return self._comparison_selectivity(predicate)
        return DEFAULT_OTHER_SELECTIVITY

    def _comparison_selectivity(self, predicate: Comparison) -> float:
        left, right, op = predicate.left, predicate.right, predicate.op
        if isinstance(left, (Literal, Parameter)) and isinstance(
            right, ColumnRef
        ):
            left, right = right, left
            op = op.flipped()
        if isinstance(left, ColumnRef) and isinstance(right, Literal):
            if op is ComparisonOp.EQ:
                return self._equality_selectivity(left)
            if op is ComparisonOp.NE:
                return max(0.0, 1.0 - self._equality_selectivity(left))
            return self._range_selectivity(left, op, right.value)
        if isinstance(left, ColumnRef) and isinstance(right, Parameter):
            # Host variable: an unknown constant (§4.1). Equality keeps
            # the 1/NDV uniform-value estimate; ranges get the classic
            # System-R magic fraction since the cutpoint is unknown.
            if op is ComparisonOp.EQ:
                return self._equality_selectivity(left)
            if op is ComparisonOp.NE:
                return max(0.0, 1.0 - self._equality_selectivity(left))
            return DEFAULT_RANGE_SELECTIVITY
        if isinstance(left, ColumnRef) and isinstance(right, ColumnRef):
            if op is ComparisonOp.EQ:
                return join_selectivity(
                    self.stats.column_stats(left),
                    self.stats.column_stats(right),
                )
            return DEFAULT_RANGE_SELECTIVITY
        return DEFAULT_OTHER_SELECTIVITY

    def _is_null_selectivity(self, predicate: IsNull) -> float:
        if isinstance(predicate.operand, ColumnRef):
            stats = self.stats.column_stats(predicate.operand)
            row_count = self.stats.row_count(predicate.operand.qualifier)
            if stats is not None and row_count > 0:
                null_fraction = 1.0 - stats.not_null_fraction(row_count)
                return (
                    1.0 - null_fraction if predicate.negated else null_fraction
                )
        return DEFAULT_EQ_SELECTIVITY

    def _equality_selectivity(self, column: ColumnRef) -> float:
        stats = self.stats.column_stats(column)
        if stats is None or stats.ndv <= 0:
            return DEFAULT_EQ_SELECTIVITY
        # NULLs never satisfy an equality: 1/NDV holds only for the
        # non-null share of the table.
        return stats.selectivity_equal(self.stats.row_count(column.qualifier))

    def _range_selectivity(
        self, column: ColumnRef, op: ComparisonOp, value: Any
    ) -> float:
        stats = self.stats.column_stats(column)
        if stats is None:
            return DEFAULT_RANGE_SELECTIVITY
        row_count = self.stats.row_count(column.qualifier)
        if op in (ComparisonOp.LT, ComparisonOp.LE):
            return stats.selectivity_range(None, value, row_count)
        return stats.selectivity_range(value, None, row_count)


def join_selectivity(
    left: Optional[ColumnStats], right: Optional[ColumnStats]
) -> float:
    """Selectivity of an equi-join predicate: 1 / max(NDV_l, NDV_r)."""
    candidates = [
        stats.ndv for stats in (left, right) if stats is not None and stats.ndv > 0
    ]
    if not candidates:
        return DEFAULT_EQ_SELECTIVITY
    return 1.0 / max(candidates)
