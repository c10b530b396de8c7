"""Spans around the program's layer boundaries, recorded from outside.

Nothing under ``src/`` knows about tracing. :meth:`Tracer.install`
rebinds the public entry points *in the modules that call them* to
span-recording wrappers and :meth:`Tracer.uninstall` puts the originals
back, so end-to-end numbers (always taken with the tracer uninstalled)
run the unmodified program.

A span is ``{id, name, start, end, parent, stmt_id}`` plus optional
``attrs``. Spans of one statement share ``stmt_id``; ``parent`` is the
id of the span that caused it. Client-side the harness opens one
``statement`` root span per arrival. When the statement runs on a
``QueryService`` worker, the first worker-side entry point
(``PlanCache.plan_for``) adopts the root by the SQL text the client
registered: the admission queue is FIFO, so first-registered is
first-dequeued. The gap between client submit and that first span is
recorded as ``service.queue_wait``.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON
lines. Self time is a span's duration minus the part of it its
children cover.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict, deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.executor.context import ExecutionContext

STATEMENT = "statement"

# Operator class name fragments -> family, first match wins.
_FAMILIES = (
    ("Scan", "scan"),
    ("Filter", "filter"),
    ("Join", "join"),
    ("GroupBy", "group"),
    ("Distinct", "group"),
    ("Sort", "sort"),
)
FAMILIES = ("scan", "filter", "join", "group", "sort", "other")


def operator_family(operator: object) -> str:
    name = type(operator).__name__
    for fragment, family in _FAMILIES:
        if fragment in name:
            return family
    return "other"


def operator_self_seconds(root, context: ExecutionContext) -> Dict[str, float]:
    """Self time per operator family from one execution's metrics.

    ``OperatorMetrics.seconds`` is inclusive of children; self time is
    what remains after subtracting the children's inclusive time.
    """
    totals = dict.fromkeys(FAMILIES, 0.0)
    stack = [root]
    while stack:
        operator = stack.pop()
        metrics = context.metrics.get(operator)
        children = list(operator.children())
        stack.extend(children)
        if metrics is None:
            continue
        inclusive = sum(
            context.metrics[child].seconds
            for child in children
            if child in context.metrics
        )
        totals[operator_family(operator)] += max(0.0, metrics.seconds - inclusive)
    return totals


class Tracer:
    """Records spans; owns the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        # sql text -> FIFO of (root span id, stmt_id, submit time) for
        # statements handed to a service and not yet picked up.
        self._pending: Dict[str, deque] = defaultdict(deque)
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, attrs: Optional[dict] = None) -> Dict[str, Any]:
        stack = self._stack()
        if stack:
            parent, stmt_id = stack[-1]["id"], stack[-1]["stmt_id"]
        else:
            # A worker thread between statements inherits the statement
            # its last plan_for adopted.
            parent, stmt_id = getattr(self._local, "adopted", (None, None))
        span = {
            "id": next(self._ids),
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": parent,
            "stmt_id": stmt_id,
        }
        if attrs:
            span["attrs"] = attrs
        stack.append(span)
        return span

    def _close(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def begin_statement(
        self, stmt_id: int, cls: str, service_sql: Optional[str] = None
    ) -> Dict[str, Any]:
        """Open the client-side root span of one arrival.

        Pass ``service_sql`` when the statement is about to be handed
        to a ``QueryService``: the worker that picks it up adopts this
        root for its spans.
        """
        span = self._open(STATEMENT, {"cls": cls})
        span["stmt_id"] = stmt_id
        if service_sql is not None:
            with self._lock:
                self._pending[service_sql].append(
                    (span["id"], stmt_id, span["start"])
                )
        return span

    def end_statement(self, span: Dict[str, Any]) -> None:
        self._close(span)

    def _adopt(self, sql: str) -> None:
        """Worker side: take over the root the client registered."""
        with self._lock:
            waiting = self._pending.get(sql)
            claimed = waiting.popleft() if waiting else None
        if claimed is None:
            self._local.adopted = (None, None)
            return
        root_id, stmt_id, submitted = claimed
        self._local.adopted = (root_id, stmt_id)
        self.spans.append(
            {
                "id": next(self._ids),
                "name": "service.queue_wait",
                "start": submitted,
                "end": time.perf_counter(),
                "parent": root_id,
                "stmt_id": stmt_id,
            }
        )

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------

    def _patch(self, owner: object, attribute: str, name: str, before=None, after=None):
        """Rebind ``owner.attribute`` to a wrapper that runs the original
        inside a span. ``before(args, kwargs)`` runs ahead of the span;
        ``after(span, args, result)`` may attach attributes to it."""
        tracer = self
        original = getattr(owner, attribute)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result)
                return result
            finally:
                tracer._close(span)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def install(self) -> None:
        """Rebind the entry points to span wrappers (see module doc)."""
        from repro.executor.operators import PhysicalOperator
        from repro.optimizer import Optimizer
        from repro.service import PlanCache
        from repro.storage import Database

        if self._patches:
            raise RuntimeError("tracer already installed")
        tracer = self
        # By module path: a package attribute of the same name may be a
        # function (``repro.service.parameterize`` is).
        module = importlib.import_module
        optimizer_module = module("repro.optimizer.optimizer")

        def plan_for_status(span, _args, result):
            span["attrs"] = {"status": result[2]}

        def adopt_statement(args, kwargs):
            # plan_for(cache, database, sql, ...) on a thread with no
            # open span: a service worker starting a statement.
            if not tracer._stack():
                tracer._adopt(args[2] if len(args) > 2 else kwargs["sql"])

        def planner_stats(span, args, _result):
            stats = args[0].stats
            span["attrs"] = {
                "plans_generated": stats.plans_generated,
                "plans_pruned": stats.plans_pruned,
                "sort_ahead_plans": stats.sort_ahead_plans,
            }

        # plan_for imports parameterize from its submodule at call time.
        self._patch(
            module("repro.service.parameterize"),
            "parameterize", "service.parameterize",
        )
        self._patch(
            PlanCache, "plan_for", "service.plan_for",
            before=adopt_statement, after=plan_for_status,
        )
        self._patch(Optimizer, "plan_sql", "optimizer.plan")
        self._patch(optimizer_module, "parse_query", "parser.parse")
        self._patch(optimizer_module, "rewrite", "qgm.rewrite")
        self._patch(optimizer_module, "normalize", "qgm.normalize")
        self._patch(optimizer_module, "run_order_scan", "optimizer.order_scan")
        self._patch(optimizer_module, "enumerate_joins", "optimizer.enumerate")
        self._patch(
            optimizer_module, "finalize_plans", "optimizer.finalize",
            after=planner_stats,
        )
        # api.execute resolves its module global; PlanCache.plan_for
        # imports from executor.build at call time.
        self._patch(module("repro.api"), "build_executor", "executor.build")
        self._patch(
            module("repro.executor.build"), "build_executor", "executor.build"
        )

        def operator_metrics(span, args, _result):
            # A naive NLJ or Materialize drains its inner with execute():
            # that subtree's metrics already sit in the root's context.
            stack = tracer._stack()
            if len(stack) > 1 and stack[-2]["name"].startswith("executor.execute"):
                span["name"] = "executor.execute.nested"
                return
            root, context = args[0], args[1]
            span["attrs"] = {
                "self_s": operator_self_seconds(root, context),
                "spill_pages": context.spill_pages,
            }

        self._patch(
            PhysicalOperator, "execute", "executor.execute", after=operator_metrics
        )
        self._patch(Database, "analyze_table", "catalog.analyze")

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> duration minus the interval its children cover
    (children clipped to the parent, so a straggler cannot push self
    time below zero)."""
    children: Dict[int, list] = defaultdict(list)
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None:
            start = max(span["start"], parent["start"])
            end = min(span["end"], parent["end"])
            if end > start:
                children[parent["id"]].append((start, end))
    return {
        span["id"]: (span["end"] - span["start"]) - _covered(children[span["id"]])
        for span in spans
    }
