"""Expression trees, evaluation, and predicate analysis.

Expressions are immutable trees of :class:`~repro.expr.nodes.Expression`
nodes. Predicates are boolean-valued expressions; the optimizer analyses
them (see :mod:`repro.expr.analysis`) to extract the ``col = constant``
and ``col = col`` facts that drive the paper's order algebra.
"""

from repro.expr.nodes import (
    Aggregate,
    AggregateKind,
    Arithmetic,
    ArithmeticOp,
    BooleanExpr,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    ComparisonOp,
    DatePart,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
    col,
    lit,
)
from repro.expr.schema import RowSchema
from repro.expr.bindings import active_value, current_bindings, parameter_scope
from repro.expr.evaluate import evaluate, evaluate_predicate
from repro.expr.compile import predicate_kernel
from repro.expr.vector import (
    ColumnBlock,
    JoinBlock,
    RowBlock,
    VectorBatch,
    VectorFilter,
    compile_vector_filter,
    vector_projection_kernel,
    vector_value_kernel,
)
from repro.expr.analysis import (
    PredicateFacts,
    analyze_predicates,
    columns_of,
    conjuncts_of,
    is_column_constant_equality,
    is_column_equality,
)

__all__ = [
    "Aggregate",
    "AggregateKind",
    "Arithmetic",
    "ArithmeticOp",
    "BooleanExpr",
    "BooleanOp",
    "CaseWhen",
    "ColumnRef",
    "Comparison",
    "ComparisonOp",
    "DatePart",
    "Expression",
    "InList",
    "IsNull",
    "Literal",
    "Not",
    "col",
    "lit",
    "RowSchema",
    "active_value",
    "current_bindings",
    "parameter_scope",
    "evaluate",
    "evaluate_predicate",
    "predicate_kernel",
    "VectorBatch",
    "RowBlock",
    "ColumnBlock",
    "JoinBlock",
    "VectorFilter",
    "compile_vector_filter",
    "vector_projection_kernel",
    "vector_value_kernel",
    "PredicateFacts",
    "analyze_predicates",
    "columns_of",
    "conjuncts_of",
    "is_column_constant_equality",
    "is_column_equality",
]
