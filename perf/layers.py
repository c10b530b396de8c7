"""Per-layer metrics: their names, and how each is derived.

A layer is a ``src/repro`` module. Three sources feed the numbers:

* spans of the traced passes (:mod:`perf.trace`) - times per statement;
* deltas of the program's own counters over the *first* traced pass
  (``core.instrument``, ``expr.compile.stats``, ``ServiceStats``,
  ``IoStats``) - these repeat exactly with one client;
* isolation passes that call one layer's public functions directly
  over inputs taken from the workload itself.

``PER_LAYER`` is the authority for names, units and directions;
BENCHMARK.json repeats it and perf/tests checks they agree. A metric
that does not apply to a workload (``service.*`` on ``adhoc_plan``)
reads 0: no work was done in that layer.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from collections import defaultdict
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from perf import trace as tracing

# (name, unit, better)
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("service.parameterize_us", "us", "lower"),
    ("service.plan_for_hit_us", "us", "lower"),
    ("service.plan_for_miss_ms", "ms", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.queue_wait_p95_ms", "ms", "lower"),
    ("service.cache_hit_ratio", "ratio", "higher"),
    ("service.cache_invalidations", "count", "lower"),
    ("service.single_flight_waits", "count", "lower"),
    ("service.rejected", "count", "lower"),
    ("service.timeouts", "count", "lower"),
    ("parser.parse_ms", "ms", "lower"),
    ("qgm.rewrite_ms", "ms", "lower"),
    ("optimizer.order_scan_ms", "ms", "lower"),
    ("optimizer.enumerate_ms", "ms", "lower"),
    ("optimizer.finalize_ms", "ms", "lower"),
    ("optimizer.plan_total_ms", "ms", "lower"),
    ("optimizer.plans_generated", "count", "lower"),
    ("optimizer.plans_pruned", "count", "lower"),
    ("optimizer.sort_ahead_plans", "count", "lower"),
    ("optimizer.full_sorts", "count", "lower"),
    ("optimizer.partial_sorts", "count", "lower"),
    ("core.reduce_calls", "count", "lower"),
    ("core.test_calls", "count", "lower"),
    ("core.cover_calls", "count", "lower"),
    ("core.homogenize_calls", "count", "lower"),
    ("core.closure_iterations", "count", "lower"),
    ("core.memo_hit_ratio", "ratio", "higher"),
    ("core.reduce_us", "us", "lower"),
    ("core.test_us", "us", "lower"),
    ("core.cover_us", "us", "lower"),
    ("core.homogenize_us", "us", "lower"),
    ("properties.propagate_join_calls", "count", "lower"),
    ("properties.propagate_memo_hit_ratio", "ratio", "higher"),
    ("properties.context_calls", "count", "lower"),
    ("cost.time_qerror_geomean", "ratio", "lower"),
    ("cost.qerror_geomean", "ratio", "lower"),
    ("expr.compile_calls", "count", "lower"),
    ("expr.compile_memo_hit_ratio", "ratio", "higher"),
    ("expr.vector_fallback_terms", "count", "lower"),
    ("expr.filter_mrows_per_s", "Mrows/s", "higher"),
    ("storage.buffer_hit_ratio", "ratio", "higher"),
    ("storage.seq_misses", "count", "lower"),
    ("storage.random_misses", "count", "lower"),
    ("storage.sim_io_ms", "ms", "lower"),
    ("storage.scan_mrows_per_s", "Mrows/s", "higher"),
    ("storage.probe_us", "us", "lower"),
    ("executor.build_ms", "ms", "lower"),
    ("executor.execute_ms", "ms", "lower"),
    ("executor.scan_self_ms", "ms", "lower"),
    ("executor.filter_self_ms", "ms", "lower"),
    ("executor.join_self_ms", "ms", "lower"),
    ("executor.group_self_ms", "ms", "lower"),
    ("executor.sort_self_ms", "ms", "lower"),
    ("executor.other_self_ms", "ms", "lower"),
    ("executor.rows_sorted", "count", "lower"),
    ("executor.rows_partial_sorted", "count", "lower"),
    ("executor.spill_pages", "count", "lower"),
    ("executor.index_probes", "count", "lower"),
    ("executor.sim_elapsed_p50_ms", "ms", "lower"),
    ("catalog.analyze_ms", "ms", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.planning_share", "ratio", "lower"),
    ("trace.executor_share", "ratio", "lower"),
    ("trace.service_share", "ratio", "lower"),
)

PLANNING_LAYERS = ("parser", "qgm", "optimizer")
ALGEBRA = ("reduce", "test", "cover", "homogenize")


def counters() -> Dict[str, float]:
    """Every counter the program keeps, as one flat dict."""
    from repro.core import instrument
    from repro.expr import compile as expr_compile

    merged = dict(instrument.snapshot())
    merged.update(expr_compile.stats())
    return merged


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _mean(values: Sequence[float]) -> float:
    return _ratio(sum(values), len(values))


def _geomean(values: Iterable[float]) -> float:
    logs = [math.log(value) for value in values if value > 0]
    return math.exp(sum(logs) / len(logs)) if logs else 0.0


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


# ----------------------------------------------------------------------
# From spans
# ----------------------------------------------------------------------


def span_metrics(
    spans: List[Dict[str, Any]], speeds: Dict[int, float]
) -> Dict[str, float]:
    """Times and shares from the spans of all traced passes.

    ``speeds`` maps a statement id to the machine-speed factor it ran
    under (:mod:`perf.speed`); its spans are divided by it.
    """
    self_time = tracing.self_times(spans)
    # name -> stmt_id -> summed inclusive duration
    inclusive: Dict[str, Dict[int, float]] = defaultdict(lambda: defaultdict(float))
    layer_self: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
    roots: Dict[int, float] = {}
    root_self = 0.0
    plan_for = {"hit": [], "miss": []}
    queue_waits: List[float] = []
    analyze: List[float] = []
    family_self: Dict[str, float] = defaultdict(float)
    for span in spans:
        name, stmt_id = span["name"], span["stmt_id"]
        speed = speeds.get(stmt_id, 1.0)
        duration = (span["end"] - span["start"]) / speed
        own = self_time[span["id"]] / speed
        if name == "catalog.analyze":
            analyze.append(duration)
        if stmt_id is None:
            continue
        inclusive[name][stmt_id] += duration
        if name == tracing.STATEMENT:
            roots[stmt_id] = duration
            root_self += own
        layer_self[stmt_id][name.split(".")[0]] += own
        attrs = span.get("attrs") or {}
        if name == "service.plan_for":
            plan_for[attrs["status"]].append(duration)
        elif name == "service.queue_wait":
            queue_waits.append(duration)
        elif name == "executor.execute":
            for family, seconds in attrs["self_s"].items():
                family_self[family] += seconds / speed

    def mean_ms(*names: str) -> float:
        """Mean, over statements that ran any of ``names``, of the time
        spent in them."""
        per_statement: Dict[int, float] = defaultdict(float)
        for name in names:
            for stmt_id, seconds in inclusive[name].items():
                per_statement[stmt_id] += seconds
        if not per_statement:
            return 0.0
        return 1000.0 * sum(per_statement.values()) / len(per_statement)

    total = sum(roots.values())
    by_layer: Dict[str, float] = defaultdict(float)
    service_shares = []
    for stmt_id, layers in layer_self.items():
        for layer, seconds in layers.items():
            by_layer[layer] += seconds
        if stmt_id in roots:
            outside = layers["service"] + layers[tracing.STATEMENT]
            service_shares.append(_ratio(outside, roots[stmt_id]))
    executed = len(inclusive["executor.execute"])
    metrics = {
        "service.parameterize_us": 1000.0 * mean_ms("service.parameterize"),
        "service.plan_for_hit_us": 1e6 * _mean(plan_for["hit"]),
        "service.plan_for_miss_ms": 1e3 * _mean(plan_for["miss"]),
        "service.queue_wait_p50_ms": 1e3 * percentile(queue_waits, 0.50),
        "service.queue_wait_p95_ms": 1e3 * percentile(queue_waits, 0.95),
        "parser.parse_ms": mean_ms("parser.parse"),
        "qgm.rewrite_ms": mean_ms("qgm.rewrite", "qgm.normalize"),
        "optimizer.order_scan_ms": mean_ms("optimizer.order_scan"),
        "optimizer.enumerate_ms": mean_ms("optimizer.enumerate"),
        "optimizer.finalize_ms": mean_ms("optimizer.finalize"),
        "optimizer.plan_total_ms": mean_ms("optimizer.plan"),
        "executor.build_ms": mean_ms("executor.build"),
        "executor.execute_ms": mean_ms("executor.execute"),
        "catalog.analyze_ms": 1e3 * _mean(analyze),
        "trace.unattributed_share": _ratio(root_self, total),
        "trace.planning_share": _ratio(
            sum(by_layer[layer] for layer in PLANNING_LAYERS), total
        ),
        "trace.executor_share": _ratio(by_layer["executor"], total),
        # The median statement's share: with a point-lookup majority it
        # is a point statement's.
        "trace.service_share": (
            statistics.median(service_shares) if service_shares else 0.0
        ),
    }
    for family in tracing.FAMILIES:
        metrics[f"executor.{family}_self_ms"] = (
            1e3 * _ratio(family_self[family], executed)
        )
    return metrics


def planner_counts(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """``PlannerStats`` summed over the blocks planned in ``spans``."""
    totals = {"plans_generated": 0, "plans_pruned": 0, "sort_ahead_plans": 0}
    for span in spans:
        if span["name"] == "optimizer.finalize":
            for key in totals:
                totals[key] += span["attrs"][key]
    return {f"optimizer.{key}": float(value) for key, value in totals.items()}


# ----------------------------------------------------------------------
# From counter deltas over one pass
# ----------------------------------------------------------------------


def counter_metrics(delta: Dict[str, float]) -> Dict[str, float]:
    def get(name: str) -> float:
        return float(delta.get(name, 0))

    algebra_calls = sum(get(f"{op}.calls") for op in ALGEBRA)
    algebra_hits = sum(get(f"{op}.memo_hits") for op in ALGEBRA)
    return {
        "core.reduce_calls": get("reduce.calls"),
        "core.test_calls": get("test.calls"),
        "core.cover_calls": get("cover.calls"),
        "core.homogenize_calls": get("homogenize.calls"),
        "core.closure_iterations": get("closure.iterations"),
        "core.memo_hit_ratio": _ratio(algebra_hits, algebra_calls),
        "properties.propagate_join_calls": get("propagate.join_calls"),
        "properties.propagate_memo_hit_ratio": _ratio(
            get("propagate.join_memo_hits"), get("propagate.join_calls")
        ),
        "properties.context_calls": get("stream.context_calls"),
        "expr.compile_calls": get("compile.calls"),
        "expr.compile_memo_hit_ratio": _ratio(
            get("compile.memo_hits"), get("compile.calls")
        ),
        "expr.vector_fallback_terms": get("vector.fallback_terms"),
        "executor.rows_sorted": get("exec.rows_sorted"),
        "executor.rows_partial_sorted": get("exec.rows_partial_sorted"),
        "executor.index_probes": get("exec.index_probe.probes"),
    }


def service_metrics(before, after) -> Dict[str, float]:
    """Deltas of two ``ServiceStats`` (None when there is no service)."""
    if before is None:
        return {}
    cache = {
        key: after.cache[key] - before.cache[key]
        for key in ("hits", "misses", "invalidations", "single_flight_waits")
    }
    return {
        "service.cache_hit_ratio": _ratio(
            cache["hits"], cache["hits"] + cache["misses"]
        ),
        "service.cache_invalidations": float(cache["invalidations"]),
        "service.single_flight_waits": float(cache["single_flight_waits"]),
        "service.rejected": float(after.rejected - before.rejected),
        "service.timeouts": float(after.timeouts - before.timeouts),
    }


def storage_metrics(io, statements: int) -> Dict[str, float]:
    """From the ``IoStats`` a pass accumulated over ``statements``."""
    return {
        "storage.buffer_hit_ratio": _ratio(io.hits, io.total_accesses),
        "storage.seq_misses": float(io.sequential_misses),
        "storage.random_misses": float(io.random_misses),
        "storage.sim_io_ms": _ratio(io.simulated_io_ms(), statements),
    }


# ----------------------------------------------------------------------
# Isolation passes
# ----------------------------------------------------------------------

_ROUNDS = 5


def _timed(clock, action) -> float:
    """Seconds ``action()`` takes at reference machine speed."""
    clock.probe()
    started = time.perf_counter()
    action()
    finished = time.perf_counter()
    clock.probe()
    return clock.scaled(started, finished)


def _plan_nodes(plans) -> list:
    nodes, seen = [], set()
    stack = [plan.root for plan in plans]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        nodes.append(node)
        stack.extend(node.children)
    return nodes


def core_isolation(plans, clock) -> Dict[str, float]:
    """Microseconds per call of the four algebra functions over the
    order specs and contexts of the workload's own plan nodes, memos
    cleared at the start of every round."""
    from repro.core import (
        clear_memos, cover_order, homogenize_order, reduce_order, test_order,
    )

    cases = []
    for node in _plan_nodes(plans):
        order = node.properties.order
        if order is not None and not order.is_empty():
            cases.append(
                (order, node.properties.context(),
                 frozenset(node.properties.schema.columns))
            )
    specs = list(dict.fromkeys(order for order, _context, _columns in cases))
    operations = {
        "reduce": lambda: [reduce_order(order, context) for order, context, _ in cases],
        "test": lambda: [
            test_order(wanted, order, context)
            for order, context, _ in cases for wanted in specs
        ],
        "cover": lambda: [
            cover_order(order, other, context)
            for order, context, _ in cases for other in specs
        ],
        "homogenize": lambda: [
            homogenize_order(wanted, columns, context)
            for _order, context, columns in cases for wanted in specs
        ],
    }
    result = {}
    for name, operation in operations.items():
        calls = len(operation())
        per_call = []
        for _ in range(_ROUNDS if calls else 0):
            clear_memos()
            per_call.append(1e6 * _timed(clock, operation) / calls)
        result[f"core.{name}_us"] = statistics.median(per_call) if per_call else 0.0
    return result


_Q6_PREDICATE = """select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date('1994-01-01') and l_shipdate < date('1995-01-01')
  and l_discount between 0.05 and 0.07 and l_quantity < 24"""


def storage_expr_isolation(database, seed: int, clock) -> Dict[str, float]:
    """Heap scan, index probe and the Q6 predicate kernel on their own."""
    from repro.api import plan_query
    from repro.expr.compile import predicate_kernel
    from repro.optimizer.plan import OpKind
    from repro.storage.database import encode_index_key

    heap = database.store("lineitem").heap
    rows: list = []

    def scan():
        rows.clear()
        for page in heap.scan_pages():
            rows.extend(page)

    scan_seconds = [_timed(clock, scan) for _ in range(_ROUNDS)]
    scan_rates = [len(rows) / seconds / 1e6 for seconds in scan_seconds]

    filter_node = plan_query(database, _Q6_PREDICATE).find_all(OpKind.FILTER)[0]
    kernel = predicate_kernel(
        filter_node.args["predicate"], filter_node.children[0].properties.schema
    )
    batches = [rows[start:start + 1024] for start in range(0, len(rows), 1024)]
    filter_rates = [
        len(rows) / _timed(clock, lambda: [kernel(batch) for batch in batches]) / 1e6
        for _ in range(_ROUNDS)
    ]

    index = database.catalog.index("pk_orders")
    tree = database.index_tree("pk_orders")
    directions = [column.direction for column in index.key]
    rng = random.Random(f"{seed}:probe")
    orders = database.store("orders").row_count()
    keys = [
        encode_index_key((rng.randint(1, orders),), directions)
        for _ in range(2000)
    ]
    probe_times = [
        1e6 * _timed(clock, lambda: [tree.probe(key) for key in keys]) / len(keys)
        for _ in range(_ROUNDS)
    ]
    database.reset_io()
    return {
        "storage.scan_mrows_per_s": statistics.median(scan_rates),
        "expr.filter_mrows_per_s": statistics.median(filter_rates),
        "storage.probe_us": statistics.median(probe_times),
    }


def cost_metrics(database, samples) -> Dict[str, float]:
    """Estimate-vs-measured for one statement per class.

    ``samples`` are ``(plan, bindings)`` pairs. The time q-error is the
    symmetric ratio of the plan's estimated ``cost.total_ms`` to the
    measured ``simulated_elapsed_ms`` of a cold execution; the
    cardinality q-error is the geomean over the nodes
    ``execute(observe=True)`` reports.
    """
    from repro.api import execute

    time_errors, row_errors = [], []
    for plan, bindings in samples:
        result = execute(
            database, plan, cold_cache=True, parameters=bindings, observe=True
        )
        estimated, measured = plan.cost.total_ms, result.simulated_elapsed_ms
        if estimated > 0 and measured > 0:
            time_errors.append(max(estimated / measured, measured / estimated))
        row_errors.extend(obs.q_error for obs in result.observations or ())
    return {
        "cost.time_qerror_geomean": _geomean(time_errors),
        "cost.qerror_geomean": _geomean(row_errors),
    }
