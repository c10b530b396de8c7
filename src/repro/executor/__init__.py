"""Physical execution engine (block-at-a-time iterator model).

Operators pull :class:`~repro.expr.vector.VectorBatch` blocks from
their children through one protocol (``blocks()``; ``batches()`` /
``rows()`` / ``execute()`` are adapters that collapse blocks into row
tuples); scans charge page accesses to the database's buffer pool, so a
query's simulated I/O pattern falls out of actually running it.
Sorting, merging, hashing, and aggregation are all real — benchmark
elapsed times measure genuine work.

Two engines share the operator tree: ``vector`` (columnar blocks with
selection vectors, late materialization, and cost-ordered predicates;
the default) and ``interpreted`` (row-at-a-time tree walking, the
semantic reference); ``REPRO_EXEC`` or ``ExecutionContext(mode=...)``
selects one. Results are byte-identical in both; per-operator
rows/blocks/time/selectivity land in ``ExecutionContext.metrics`` and
render via ``explain(analyze=...)``.
"""

from repro.executor.context import (
    DEFAULT_BATCH_SIZE,
    MODE_INTERPRETED,
    MODE_VECTOR,
    ExecutionContext,
    OperatorMetrics,
    default_exec_mode,
    resolve_batch_size,
)
from repro.executor.operators import (
    FilterOp,
    IndexScanOp,
    LimitOp,
    MaterializeOp,
    PhysicalOperator,
    ProjectOp,
    SortOp,
    TableScanOp,
)
from repro.executor.joins import (
    HashJoinOp,
    MergeJoinOp,
    NestedLoopIndexJoinOp,
    NestedLoopJoinOp,
)
from repro.executor.aggregate import (
    HashDistinctOp,
    HashGroupByOp,
    SortedDistinctOp,
    SortedGroupByOp,
)

__all__ = [
    "ExecutionContext",
    "OperatorMetrics",
    "MODE_INTERPRETED",
    "MODE_VECTOR",
    "DEFAULT_BATCH_SIZE",
    "default_exec_mode",
    "resolve_batch_size",
    "PhysicalOperator",
    "TableScanOp",
    "IndexScanOp",
    "FilterOp",
    "ProjectOp",
    "SortOp",
    "LimitOp",
    "MaterializeOp",
    "NestedLoopJoinOp",
    "NestedLoopIndexJoinOp",
    "MergeJoinOp",
    "HashJoinOp",
    "SortedGroupByOp",
    "HashGroupByOp",
    "SortedDistinctOp",
    "HashDistinctOp",
]
