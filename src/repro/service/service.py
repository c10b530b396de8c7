"""The concurrent query front end.

:class:`QueryService` owns a database handle, a plan cache, and a small
worker pool. Statements are submitted to a bounded admission queue;
when the queue is full the service rejects immediately
(:class:`~repro.errors.AdmissionError`) instead of building an unbounded
backlog — callers see backpressure, not latency collapse.

The resilience layer (the contract every future resolves under):

* **Deadlines** — ``submit(..., timeout=...)`` (or the service-wide
  ``default_timeout``) arms a :class:`~repro.executor.context.CancelToken`
  at admission. The deadline covers queue wait, planning, and
  execution; executor operators poll the token at block boundaries, so
  a runaway scan/sort/join raises
  :class:`~repro.errors.QueryTimeout` from inside its pull loop.
* **Cancellation** — :meth:`QueryService.cancel` cancels an unstarted
  future outright and trips the token of a running one
  (:class:`~repro.errors.QueryCancelled` is cooperative, at the next
  checkpoint).
* **Graceful shutdown** — :meth:`QueryService.close` stops admissions
  under the lock (no submit can slip in behind the shutdown
  sentinels), lets in-flight queries finish, and fails every
  still-queued future with :class:`~repro.errors.ServiceClosed`; no
  caller is left hanging on ``.result()``.
* **Single-flight planning** — concurrent misses on one cache key plan
  once (see :class:`repro.service.cache.PlanCache`).

Execution notes for the concurrent path:

* plans are cached, operator trees are not — a fresh tree is built per
  execution (operators carry per-run state such as probe caches), while
  the expression kernels inside it come from the compile memo, which
  the statement's first execution filled;
* parameter bindings live in a thread-local scope
  (:mod:`repro.expr.bindings`), so two workers can run the same cached
  plan with different bindings simultaneously;
* per-query I/O counters are meaningless under concurrency, so the
  service never calls ``database.reset_io`` — the buffer pool stays
  warm and shared, like a server's.

Metrics: every completed query records its wall-clock latency; p50/p95,
cache hit rates, timeout/cancellation totals, and the in-flight gauge
are available from :meth:`QueryService.stats` and the ``service.*``
instrument counters. Queries slower than ``slow_query_ms`` land in a
bounded slow-query log (:meth:`QueryService.slow_queries`).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, NamedTuple, Optional

from repro.api import QueryResult, execute
from repro.core.instrument import count
from repro.cost.model import CostModel
from repro.errors import (
    AdmissionError,
    QueryCancelled,
    QueryTimeout,
    ServiceClosed,
    ServiceError,
)
from repro.executor.context import CancelToken, validate_mode
from repro.optimizer import OptimizerConfig
from repro.service.cache import PlanCache
from repro.storage import Database

_SHUTDOWN = object()


class _Work(NamedTuple):
    """One admitted statement riding the queue to a worker."""

    sql: str
    parameters: Optional[Dict[str, Any]]
    config: Optional[OptimizerConfig]
    future: "Future[QueryResult]"
    token: CancelToken


class SlowQuery(NamedTuple):
    """One slow-query log record."""

    sql: str
    elapsed_ms: float
    cache_status: str


class PlanRegression(NamedTuple):
    """One plan-regression log record (workload feedback gate).

    ``action`` says how the gate resolved it; the only admitting value
    today is ``"incumbent-retained"`` — the challenger plan was
    rejected and the previous plan re-pinned.
    """

    statement: str
    incumbent_fingerprint: str
    challenger_fingerprint: str
    incumbent_ms: float
    challenger_ms: float
    incumbent_sim_io_ms: float
    challenger_sim_io_ms: float
    action: str


@dataclass
class ServiceStats:
    """A point-in-time summary of service behaviour."""

    queries: int
    rejected: int
    timeouts: int
    cancelled: int
    inflight: int
    slow: int
    p50_ms: float
    p95_ms: float
    cache: Dict[str, int] = field(default_factory=dict)
    plan_regressions: int = 0


def _percentile(sorted_values: List[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(fraction * (len(sorted_values) - 1))
    )
    return sorted_values[index]


class QueryService:
    """Serve SQL statements concurrently through a parameterized plan
    cache.

    Typical use::

        service = QueryService(db, workers=4, queue_depth=64)
        try:
            future = service.submit("select ... where k = 42", timeout=1.0)
            result = future.result()
        finally:
            service.close()

    ``query()`` is the synchronous convenience wrapper. Each call may
    override the optimizer config; a config change is a different cache
    key (and stale entries are swept on the next version change).

    ``default_timeout`` (seconds) applies to every submit that does not
    pass its own; ``timeout=None`` with no default means unbounded.
    ``slow_query_ms`` sets the slow-query-log threshold.
    """

    LATENCY_WINDOW = 4096
    SLOW_LOG_SIZE = 64

    def __init__(
        self,
        database: Database,
        config: Optional[OptimizerConfig] = None,
        cost_model: Optional[CostModel] = None,
        workers: int = 4,
        queue_depth: int = 64,
        cache_size: int = 128,
        mode: Optional[str] = None,
        default_timeout: Optional[float] = None,
        slow_query_ms: float = 500.0,
        collect_observations: bool = False,
    ):
        if workers < 1:
            raise ServiceError("need at least one worker")
        if default_timeout is not None and default_timeout <= 0:
            raise ServiceError("default_timeout must be positive")
        if mode is not None:
            validate_mode(mode)
        self.database = database
        self.config = config or OptimizerConfig()
        self.cost_model = cost_model or CostModel()
        self.cache = PlanCache(cache_size)
        self.mode = mode
        self.default_timeout = default_timeout
        self.slow_query_ms = slow_query_ms
        # Workload feedback: with collect_observations, every execution
        # also joins plan estimates against actual per-operator rows.
        self.collect_observations = collect_observations
        self._regressions: List[PlanRegression] = []
        self._queue: "queue.Queue" = queue.Queue(maxsize=queue_depth)
        self._closed = False
        self._lock = threading.Lock()
        self._latencies_ms: List[float] = []
        self._queries = 0
        self._rejected = 0
        self._timeouts = 0
        self._cancelled = 0
        self._inflight = 0
        self._slow_log: Deque[SlowQuery] = deque(maxlen=self.SLOW_LOG_SIZE)
        self._tokens: Dict["Future[QueryResult]", CancelToken] = {}
        self._last_versions = (
            database.catalog.version,
            database.catalog.stats_version,
        )
        self._workers = [
            threading.Thread(
                target=self._worker_loop, name=f"repro-svc-{i}", daemon=True
            )
            for i in range(workers)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self,
        sql: str,
        parameters: Optional[Dict[str, Any]] = None,
        config: Optional[OptimizerConfig] = None,
        timeout: Optional[float] = None,
    ) -> "Future[QueryResult]":
        """Enqueue a statement; returns a future for its result.

        ``timeout`` (seconds, overriding ``default_timeout``) starts
        the deadline clock *now*: time spent queued counts, so a
        statement stuck behind a backlog times out instead of running
        long after its caller gave up.

        Raises :class:`AdmissionError` when the admission queue is at
        depth — the backpressure contract: callers retry or shed load.
        Raises :class:`ServiceClosed` after :meth:`close`.
        """
        if timeout is None:
            timeout = self.default_timeout
        future: "Future[QueryResult]" = Future()
        token = CancelToken(timeout)
        # The closed check and the enqueue are one atomic step: close()
        # flips the flag under this lock before draining, so no submit
        # can land behind the shutdown sentinels and strand its future.
        with self._lock:
            if self._closed:
                raise ServiceClosed("service is closed")
            try:
                self._queue.put_nowait(
                    _Work(sql, parameters, config, future, token)
                )
            except queue.Full:
                self._rejected += 1
                count("service.rejected")
                raise AdmissionError(
                    f"admission queue full ({self._queue.maxsize} deep); "
                    "retry later"
                ) from None
            self._tokens[future] = token
        return future

    def query(
        self,
        sql: str,
        parameters: Optional[Dict[str, Any]] = None,
        config: Optional[OptimizerConfig] = None,
        timeout: Optional[float] = None,
    ) -> QueryResult:
        """Submit and wait."""
        return self.submit(sql, parameters, config, timeout=timeout).result()

    def cancel(self, future: "Future[QueryResult]") -> bool:
        """Cancel a submitted query.

        An unstarted future is cancelled outright (it never runs); a
        running one gets its token tripped and raises
        :class:`~repro.errors.QueryCancelled` at the executor's next
        checkpoint. Returns False when the future already finished (or
        was never submitted here).
        """
        if future.cancel():
            return True
        with self._lock:
            token = self._tokens.get(future)
        if token is None:
            return False
        token.cancel()
        return True

    def explain(
        self,
        sql: str,
        parameters: Optional[Dict[str, Any]] = None,
        config: Optional[OptimizerConfig] = None,
    ) -> str:
        """Plan (through the cache) without executing.

        The rendering includes the cache verdict and current service
        counters, so EXPLAIN output answers "would this replan?" and
        "is the service healthy?" in one place.
        """
        plan, _bindings, status = self._plan(sql, parameters, config)
        stats = self.stats()
        lines = [
            plan.explain(show_cost=True),
            f"plan cache: {status} "
            f"(hits={stats.cache['hits']} misses={stats.cache['misses']} "
            f"invalidations={stats.cache['invalidations']} "
            f"single_flight_waits={stats.cache['single_flight_waits']})",
            f"service: {stats.queries} queries, "
            f"p50={stats.p50_ms:.2f}ms p95={stats.p95_ms:.2f}ms",
            f"resilience: inflight={stats.inflight} "
            f"timeouts={stats.timeouts} cancelled={stats.cancelled} "
            f"rejected={stats.rejected} slow={stats.slow}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _plan(self, sql, parameters, config):
        catalog = self.database.catalog
        versions = (catalog.version, catalog.stats_version)
        # Claim the sweep under the lock: exactly one worker observing
        # a DDL/analyze bump performs it; unsynchronized check-and-set
        # here used to let racing workers double-sweep or skip it.
        with self._lock:
            sweep = versions != self._last_versions
            if sweep:
                self._last_versions = versions
        if sweep:
            # DDL or a stats refresh happened: old entries can never be
            # looked up again (identity+versions are in the key); sweep
            # them so they are counted and freed.
            self.cache.invalidate_stale(catalog.identity, *versions)
        return self.cache.plan_for(
            self.database,
            sql,
            parameters=parameters,
            config=config or self.config,
            cost_model=self.cost_model,
        )

    def _run(self, sql, parameters, config, token) -> QueryResult:
        started = time.perf_counter()
        with self._lock:
            self._inflight += 1
        try:
            plan, bindings, status = self._plan(sql, parameters, config)
            # Planning itself is not checkpointed; charge it against
            # the deadline before starting the (checkpointed) executor.
            token.check()
            result = execute(
                self.database,
                plan,
                parameters=bindings,
                mode=self.mode,
                reset_io=False,
                cache_status=status,
                cancel_token=token,
                observe=self.collect_observations,
            )
        finally:
            with self._lock:
                self._inflight -= 1
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        with self._lock:
            self._queries += 1
            self._latencies_ms.append(elapsed_ms)
            if len(self._latencies_ms) > self.LATENCY_WINDOW:
                del self._latencies_ms[: -self.LATENCY_WINDOW]
            if elapsed_ms >= self.slow_query_ms:
                self._slow_log.append(SlowQuery(sql, elapsed_ms, status))
                count("service.slow_queries")
        count("service.queries")
        return result

    def _worker_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _SHUTDOWN:
                self._queue.task_done()
                return
            future = item.future
            if not future.set_running_or_notify_cancel():
                self._forget(future)
                self._queue.task_done()
                continue
            try:
                # A query that out-waited its deadline in the queue
                # fails here without touching the executor.
                item.token.check()
                result = self._run(
                    item.sql, item.parameters, item.config, item.token
                )
            except BaseException as error:  # deliver, don't kill worker
                if isinstance(error, QueryTimeout):
                    with self._lock:
                        self._timeouts += 1
                    count("service.timeouts")
                elif isinstance(error, QueryCancelled):
                    with self._lock:
                        self._cancelled += 1
                    count("service.cancelled")
                future.set_exception(error)
            else:
                future.set_result(result)
            finally:
                self._forget(future)
                self._queue.task_done()

    def _forget(self, future: "Future[QueryResult]") -> None:
        with self._lock:
            self._tokens.pop(future, None)

    # ------------------------------------------------------------------
    # Workload feedback
    # ------------------------------------------------------------------

    def pin_plan(
        self,
        sql: str,
        plan,
        parameters: Optional[Dict[str, Any]] = None,
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        """Re-key an incumbent plan under the catalog's current versions.

        The regression gate calls this when a feedback-triggered replan
        made a statement worse: the incumbent goes back into the cache
        so subsequent executions of the statement class hit it.
        """
        self.cache.pin(
            self.database,
            sql,
            plan,
            parameters=parameters,
            config=config or self.config,
        )

    def note_plan_regression(self, record: PlanRegression) -> None:
        """Append one gate decision to the regression log."""
        with self._lock:
            self._regressions.append(record)
        count("service.plan_regressions")

    def plan_regressions(self) -> List[PlanRegression]:
        """The plan-regression log, oldest first."""
        with self._lock:
            return list(self._regressions)

    def stats(self) -> ServiceStats:
        with self._lock:
            latencies = sorted(self._latencies_ms)
            queries = self._queries
            rejected = self._rejected
            timeouts = self._timeouts
            cancelled = self._cancelled
            inflight = self._inflight
            slow = len(self._slow_log)
            regressions = len(self._regressions)
        return ServiceStats(
            queries=queries,
            rejected=rejected,
            timeouts=timeouts,
            cancelled=cancelled,
            inflight=inflight,
            slow=slow,
            p50_ms=_percentile(latencies, 0.50),
            p95_ms=_percentile(latencies, 0.95),
            cache=self.cache.stats(),
            plan_regressions=regressions,
        )

    def slow_queries(self) -> List[SlowQuery]:
        """The slow-query log, oldest first (bounded ring)."""
        with self._lock:
            return list(self._slow_log)

    def close(self, wait: bool = True, cancel_inflight: bool = False) -> None:
        """Stop accepting work and shut the workers down gracefully.

        In-flight queries run to completion (or, with
        ``cancel_inflight=True``, are cooperatively cancelled); every
        statement still waiting in the admission queue has its future
        failed with :class:`~repro.errors.ServiceClosed`. With
        ``wait=True`` the call returns only after every worker exited.
        """
        with self._lock:
            already_closed = self._closed
            self._closed = True
        if not already_closed:
            # Admissions are off (flag flipped under the lock submit
            # holds), so the queue only drains from here on. Fail the
            # backlog, then lay down one sentinel per worker.
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _SHUTDOWN:  # pragma: no cover - re-entrant close
                    self._queue.task_done()
                    continue
                if item.future.set_running_or_notify_cancel():
                    item.future.set_exception(
                        ServiceClosed(
                            "service shut down before this query started"
                        )
                    )
                self._forget(item.future)
                self._queue.task_done()
            if cancel_inflight:
                with self._lock:
                    tokens = list(self._tokens.values())
                for token in tokens:
                    token.cancel("service shutting down")
            for _ in self._workers:
                self._queue.put(_SHUTDOWN)
        if wait:
            for worker in self._workers:
                worker.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
