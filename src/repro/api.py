"""High-level convenience API: run SQL end to end.

This is what the examples and benchmarks use::

    from repro import Database, run_query
    result = run_query(db, "select ... order by ...")
    print(result.plan.explain())
    for row in result.rows:
        ...

Statements run on the block engine (``vector``) unless ``mode=`` or the
REPRO_EXEC env var says otherwise. :func:`execute` is also where host
variables are bound: it checks every name the plan references before
the first row, after which a binding is a constant of that execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cost.model import CostModel
from repro.executor.build import build_executor
from repro.executor.context import CancelToken, ExecutionContext
from repro.expr.bindings import parameter_scope, require_bound
from repro.optimizer import Optimizer, OptimizerConfig, Plan
from repro.storage import Database
from repro.storage.buffer import IoStats


@dataclass
class QueryResult:
    """Everything one execution produced."""

    rows: List[tuple]
    column_names: Tuple[str, ...]
    plan: Plan
    elapsed_seconds: float
    io_stats: IoStats
    simulated_io_ms: float
    spill_pages: int
    # The engine that ran the statement; None when nothing was executed
    # (EXPLAIN).
    exec_mode: Optional[str] = None
    analyzed: Optional[str] = None
    # "hit" / "miss" when the statement went through a plan cache,
    # None when it was planned directly.
    cache_status: Optional[str] = None
    # Per-node estimate-vs-actual observations when the execution ran
    # with observe=True (the workload feedback loop's input).
    observations: Optional[list] = None

    @property
    def simulated_elapsed_ms(self) -> float:
        """Modelled elapsed time: simulated I/O + measured CPU."""
        return self.simulated_io_ms + self.elapsed_seconds * 1000.0

    def __len__(self) -> int:
        return len(self.rows)


def plan_query(
    database: Database,
    sql: str,
    config: Optional[OptimizerConfig] = None,
    cost_model: Optional[CostModel] = None,
) -> Plan:
    """Optimize ``sql`` without executing it."""
    return Optimizer(database, config, cost_model).plan_sql(sql)


def run_query(
    database: Database,
    sql: str,
    config: Optional[OptimizerConfig] = None,
    cost_model: Optional[CostModel] = None,
    cold_cache: bool = False,
    parameters: Optional[dict] = None,
    mode: Optional[str] = None,
    cache=None,
) -> QueryResult:
    """Optimize and execute ``sql``, measuring real and simulated time.

    ``parameters`` binds host variables (``:name`` in the SQL text); the
    plan is reusable across bindings — re-run with :func:`execute`.
    ``mode`` selects the executor engine (``vector`` or
    ``interpreted``), defaulting to the REPRO_EXEC env var and, with
    that unset, to the block engine (``vector``).

    ``cache`` routes planning through a plan cache (anything with the
    :meth:`repro.service.PlanCache.plan_for` protocol). The result's
    ``cache_status`` then reports ``"hit"`` or ``"miss"`` instead of
    silently re-planning, and the ``analyzed`` rendering carries the
    same verdict.

    A leading ``EXPLAIN`` keyword plans the query without executing it
    and returns the plan rendering, one row per line (with per-node
    cardinality and cost estimates).
    """
    stripped = sql.lstrip()
    if stripped[:8].lower() == "explain " or stripped.lower() == "explain":
        inner = stripped[8:]
        plan = plan_query(database, inner, config, cost_model)
        lines = plan.explain(show_cost=True).splitlines()
        return QueryResult(
            rows=[(line,) for line in lines],
            column_names=("plan",),
            plan=plan,
            elapsed_seconds=0.0,
            io_stats=IoStats(),
            simulated_io_ms=0.0,
            spill_pages=0,
        )
    if cache is not None:
        plan, bindings, status = cache.plan_for(
            database,
            sql,
            parameters=parameters,
            config=config,
            cost_model=cost_model,
        )
        return execute(
            database,
            plan,
            cold_cache=cold_cache,
            parameters=bindings,
            mode=mode,
            cache_status=status,
        )
    plan = plan_query(database, sql, config, cost_model)
    return execute(
        database, plan, cold_cache=cold_cache, parameters=parameters, mode=mode
    )


def execute(
    database: Database,
    plan: Plan,
    cold_cache: bool = False,
    parameters: Optional[dict] = None,
    context: Optional[ExecutionContext] = None,
    mode: Optional[str] = None,
    reset_io: bool = True,
    cache_status: Optional[str] = None,
    cancel_token: Optional[CancelToken] = None,
    observe: bool = False,
) -> QueryResult:
    """Execute an existing plan, measuring real and simulated time.

    Every host variable the plan references must be bound by
    ``parameters``: this is checked here, once, before the first row
    and whatever the engine, so an unbound name raises the same
    :class:`~repro.errors.ExpressionError` (the first missing name in
    sorted order) even when no row would ever reach the predicate that
    uses it. Past that check a host variable is a per-execution
    constant, which is what lets the block kernels treat ``col = :v``
    like ``col = constant``.

    Pass ``context`` to control batch size / engine mode directly, or
    just ``mode`` for an engine switch with default settings. The
    per-operator runtime counters are rendered into ``analyzed``
    (``explain(analyze=...)`` form). ``reset_io=False`` keeps the
    buffer-pool counters untouched — the query service's concurrent
    path, where per-query global I/O numbers would be fiction anyway.
    ``cancel_token`` arms the operators' cooperative checkpoints — a
    tripped token raises :class:`~repro.errors.QueryTimeout` /
    :class:`~repro.errors.QueryCancelled` out of the block loops.
    ``observe=True`` additionally joins each plan node's estimated
    cardinality against the rows its operator actually produced and
    returns the per-node list in ``QueryResult.observations``.
    """
    require_bound(plan.parameter_names, parameters)
    if reset_io:
        database.reset_io(cold=cold_cache)
    if context is None:
        kwargs = {}
        if mode is not None:
            kwargs["mode"] = mode
        if cancel_token is not None:
            kwargs["cancel_token"] = cancel_token
        context = ExecutionContext(database, **kwargs)
    node_map = {} if observe else None
    operator = build_executor(plan, database, node_map=node_map)
    started = time.perf_counter()
    with parameter_scope(parameters):
        rows = operator.execute(context)
    elapsed = time.perf_counter() - started
    stats = database.buffer_pool.stats.snapshot()
    analyzed = operator.explain(analyze=context)
    if cache_status is not None:
        analyzed = f"{analyzed}\nplan cache: {cache_status}"
    observations = None
    if observe:
        from repro.executor.feedback import observe_execution

        observations = observe_execution(plan, node_map, context)
    return QueryResult(
        rows=rows,
        column_names=plan.output_names,
        plan=plan,
        elapsed_seconds=elapsed,
        io_stats=stats,
        simulated_io_ms=context.simulated_io_ms(),
        spill_pages=context.spill_pages,
        exec_mode=context.mode,
        analyzed=analyzed,
        cache_status=cache_status,
        observations=observations,
    )
