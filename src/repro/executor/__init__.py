"""Physical execution engine (batched iterator model).

Operators pull batches of tuples from their children (``rows()`` is a
thin adapter); scans charge page accesses to the database's buffer pool,
so a query's simulated I/O pattern falls out of actually running it.
Sorting, merging, hashing, and aggregation are all real — benchmark
elapsed times measure genuine work.

Three expression engines share the operator tree: ``vector`` (columnar
:class:`~repro.expr.vector.VectorBatch` blocks with selection vectors,
late materialization, and cost-ordered predicates; the default),
``compiled`` (row-batch closure kernels from :mod:`repro.expr.compile`),
and ``interpreted`` (the tree-walking reference; ``REPRO_EXEC`` or
``ExecutionContext(mode=...)`` selects any of them). Results are
byte-identical in all modes; per-operator rows/batches/time/selectivity
land in ``ExecutionContext.metrics`` and render via
``explain(analyze=...)``.
"""

from repro.executor.context import (
    DEFAULT_BATCH_SIZE,
    MODE_COMPILED,
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
    PartialSortOp,
    PhysicalOperator,
    ProjectOp,
    SortOp,
    TableScanOp,
    TopNSortOp,
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
    "MODE_COMPILED",
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
    "PartialSortOp",
    "LimitOp",
    "TopNSortOp",
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
