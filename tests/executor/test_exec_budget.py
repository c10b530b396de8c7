"""Interpreter-call budget: block-engine plans must not fall back per-row.

A silent regression mode for the block engine is an operator quietly
routing expressions through ``repro.expr.evaluate`` again — results
stay correct, throughput regresses. ``exec.interpreted.evals`` counts
every per-row interpreter call inside the executor, and
``vector.fallback_terms`` every block the kernels hand back to the
interpreter; these tests pin both to zero for ``vector`` runs of TPC-D
Q1/Q3/Q6/Q10, with vacuity guards proving the counters do move (under
the interpreted engine, and for a statement whose kernels raise) and
that compilation actually happened. The same runs hold the engine
contract on TPC-D: rows byte-identical between ``vector`` and
``interpreted``.
"""

from __future__ import annotations

import pytest

from repro.api import execute, plan_query
from repro.core.instrument import COUNTERS
from repro.errors import ExpressionError
from repro.expr import compile as expr_compile
from repro.executor import (
    ExecutionContext,
    MODE_INTERPRETED,
    MODE_VECTOR,
)
from repro.optimizer import OptimizerConfig
from repro.tpcd import tpcd_query

EVALS = "exec.interpreted.evals"
FALLBACKS = "vector.fallback_terms"


def run_query_counted(database, name, mode):
    plan = plan_query(database, tpcd_query(name), config=OptimizerConfig())
    COUNTERS[EVALS] = 0
    result = execute(
        database, plan, context=ExecutionContext(database, mode=mode)
    )
    return result, COUNTERS[EVALS]


@pytest.mark.parametrize("name", ["q1", "q3", "q6", "q10"])
def test_vector_tpcd_makes_zero_interpreter_calls(tpcd_db, name):
    expr_compile.reset_stats()
    vector_result, vector_evals = run_query_counted(tpcd_db, name, MODE_VECTOR)
    vector_fallbacks = expr_compile.stats().get(FALLBACKS, 0)
    interpreted_result, interpreted_evals = run_query_counted(
        tpcd_db, name, MODE_INTERPRETED
    )

    # Vacuity guards: the run did real work and the counter is live.
    assert vector_result.rows == interpreted_result.rows
    assert vector_result.rows, f"{name} must return rows at test scale"
    assert interpreted_evals > 0, "interpreted engine must hit the counter"
    assert expr_compile.stats().get("compile.calls", 0) > 0

    # The budget: a block-engine plan runs entirely on kernels.
    assert vector_evals == 0, (
        f"vector {name} made {vector_evals} per-row interpreter calls; "
        "an operator is falling back to repro.expr.evaluate"
    )
    assert vector_fallbacks == 0, (
        f"vector {name} re-ran {vector_fallbacks} blocks through the "
        "interpreter; a kernel raised"
    )


def test_raising_statement_moves_the_fallback_counter(tpcd_db):
    plan = plan_query(
        tpcd_db,
        "select sum(l_quantity / (l_linenumber - 1)) from lineitem",
        config=OptimizerConfig(),
    )
    expr_compile.reset_stats()
    with pytest.raises(ExpressionError, match="division by zero"):
        execute(
            tpcd_db, plan, context=ExecutionContext(tpcd_db, mode=MODE_VECTOR)
        )
    # The first block divides by zero, is handed to the interpreter
    # once, and its error ends the statement.
    assert expr_compile.stats().get(FALLBACKS, 0) == 1
