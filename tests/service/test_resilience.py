"""The service resilience contract: deadlines, cancellation, graceful
shutdown, single-flight planning, and the observability that goes with
them.

The recurring pattern: every future a caller ever receives must
resolve — with rows, or with a *typed* ServiceError — no matter how
submits race close(), how slow a plan is, or when a deadline fires.
"""

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro import Column, Database, TableSchema
from repro.errors import (
    AdmissionError,
    QueryCancelled,
    QueryTimeout,
    ServiceClosed,
    ServiceError,
)
from repro.service import PlanCache, QueryService
from repro.sqltypes import INTEGER

SLOW_SQL = "select max(a.k) from big a, big b where a.v < b.v"


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("k", INTEGER, nullable=False), Column("v", INTEGER)],
            primary_key=("k",),
        ),
        rows=[(i, i * 10) for i in range(200)],
    )
    # A table big enough that its self-cross-join (forced nested loops:
    # the predicate is non-equi) runs for several seconds uncancelled.
    db.create_table(
        TableSchema(
            "big",
            [Column("k", INTEGER, nullable=False), Column("v", INTEGER)],
            primary_key=("k",),
        ),
        rows=[(i, (i * 37) % 1000) for i in range(2500)],
    )
    return db


def stall_worker(service):
    """Replace service._run with one that blocks on an event; returns
    (entered, release) events. Deterministic worker occupancy without
    sleeps."""
    entered = threading.Event()
    release = threading.Event()
    inner_run = service._run

    def stalling_run(sql, parameters, config, token):
        entered.set()
        release.wait(timeout=30)
        return inner_run(sql, parameters, config, token)

    service._run = stalling_run
    return entered, release


# ----------------------------------------------------------------------
# Deadlines
# ----------------------------------------------------------------------


@pytest.mark.parametrize("mode", ["vector", "interpreted"])
def test_runaway_query_times_out_within_twice_deadline(db, mode):
    """A deliberately slow plan must stop mid-execution, not run to
    completion — and promptly: within 2x the deadline."""
    deadline = 0.5
    with QueryService(db, workers=1, mode=mode) as service:
        started = time.monotonic()
        future = service.submit(SLOW_SQL, timeout=deadline)
        with pytest.raises(QueryTimeout):
            future.result(timeout=30)
        elapsed = time.monotonic() - started
        assert elapsed < 2 * deadline, (
            f"timeout took {elapsed:.2f}s against a {deadline}s deadline"
        )
        stats = service.stats()
        assert stats.timeouts == 1
        # The worker survived; the service still serves.
        assert service.query("select v from t where k = 3").rows == [(30,)]


def test_deadline_covers_queue_wait(db):
    """A statement that out-waits its deadline in the admission queue
    fails with QueryTimeout without ever executing."""
    service = QueryService(db, workers=1, queue_depth=8)
    entered, release = stall_worker(service)
    try:
        blocker = service.submit("select v from t where k = 1")
        assert entered.wait(timeout=30)
        queued = service.submit("select v from t where k = 2", timeout=0.05)
        time.sleep(0.15)  # let the queued deadline lapse
        release.set()
        assert blocker.result(timeout=30).rows == [(10,)]
        with pytest.raises(QueryTimeout):
            queued.result(timeout=30)
        assert service.stats().timeouts == 1
    finally:
        release.set()
        service.close()


def test_default_timeout_applies_to_every_submit(db):
    with QueryService(db, workers=1, default_timeout=0.2) as service:
        with pytest.raises(QueryTimeout):
            service.query(SLOW_SQL)
        # An explicit timeout overrides the default.
        assert service.query(
            "select v from t where k = 5", timeout=30.0
        ).rows == [(50,)]


# ----------------------------------------------------------------------
# Cancellation
# ----------------------------------------------------------------------


def test_cancel_running_query_is_cooperative(db):
    with QueryService(db, workers=1) as service:
        future = service.submit(SLOW_SQL)
        while not future.running():
            time.sleep(0.005)
        assert service.cancel(future)
        with pytest.raises(QueryCancelled):
            future.result(timeout=30)
        assert service.stats().cancelled == 1
        assert service.query("select v from t where k = 7").rows == [(70,)]


def test_cancel_queued_query_never_runs(db):
    service = QueryService(db, workers=1, queue_depth=8)
    entered, release = stall_worker(service)
    try:
        blocker = service.submit("select v from t where k = 1")
        assert entered.wait(timeout=30)
        queued = service.submit("select v from t where k = 2")
        assert service.cancel(queued)
        release.set()
        assert blocker.result(timeout=30).rows == [(10,)]
        with pytest.raises(CancelledError):
            queued.result(timeout=30)
        assert service.stats().queries == 1  # the cancelled one never ran
    finally:
        release.set()
        service.close()


def test_cancel_finished_future_returns_false(db):
    with QueryService(db, workers=1) as service:
        future = service.submit("select v from t where k = 1")
        assert future.result(timeout=30).rows == [(10,)]
        assert not service.cancel(future)


# ----------------------------------------------------------------------
# Graceful shutdown
# ----------------------------------------------------------------------


def test_close_fails_queued_futures_with_service_closed(db):
    service = QueryService(db, workers=1, queue_depth=16)
    entered, release = stall_worker(service)
    try:
        running = service.submit("select v from t where k = 1")
        assert entered.wait(timeout=30)
        queued = [
            service.submit(f"select v from t where k = {k}")
            for k in (2, 3, 4)
        ]
        service.close(wait=False)
        # Still-queued futures fail typed and immediately...
        for future in queued:
            with pytest.raises(ServiceClosed):
                future.result(timeout=30)
        # ...while the in-flight query drains to completion.
        release.set()
        assert running.result(timeout=30).rows == [(10,)]
        with pytest.raises(ServiceClosed):
            service.submit("select v from t where k = 5")
    finally:
        release.set()
        service.close()


def test_close_can_cancel_inflight_work(db):
    service = QueryService(db, workers=1)
    future = service.submit(SLOW_SQL)
    while not future.running():
        time.sleep(0.005)
    started = time.monotonic()
    service.close(cancel_inflight=True)
    assert time.monotonic() - started < 10.0
    with pytest.raises(QueryCancelled):
        future.result(timeout=1)


def test_close_joins_all_workers(db):
    service = QueryService(db, workers=3)
    assert service.query("select v from t where k = 1").rows == [(10,)]
    service.close()
    assert all(not worker.is_alive() for worker in service._workers)
    service.close()  # idempotent


def test_submit_vs_close_stress_no_dangling_futures(db):
    """Hammer submit against close: every future the caller ever got
    must complete — rows, ServiceClosed, or a cancellation — never a
    hang. (The old service could enqueue behind the shutdown sentinels
    and strand the future forever.)"""
    sql = "select v from t where k = 9"
    for _ in range(200):
        service = QueryService(db, workers=2, queue_depth=4)
        futures = []
        barrier = threading.Barrier(2)

        def hammer():
            barrier.wait()
            for _ in range(12):
                try:
                    futures.append(service.submit(sql))
                except AdmissionError:
                    continue
                except ServiceClosed:
                    break

        thread = threading.Thread(target=hammer)
        thread.start()
        barrier.wait()
        service.close()
        thread.join(timeout=30)
        assert not thread.is_alive()
        for future in futures:
            # close(wait=True) returned, so every admitted future must
            # already be resolved; .result() must never block.
            assert future.done()
            error = future.exception(timeout=0)
            if error is None:
                assert future.result().rows == [(90,)]
            else:
                assert isinstance(error, ServiceClosed)


# ----------------------------------------------------------------------
# Single-flight planning
# ----------------------------------------------------------------------


def test_concurrent_misses_plan_once(db, monkeypatch):
    from repro.optimizer import Optimizer

    real_plan_sql = Optimizer.plan_sql
    planned = []

    def slow_plan_sql(self, sql):
        planned.append(sql)
        time.sleep(0.05)  # hold the build open so the others pile up
        return real_plan_sql(self, sql)

    monkeypatch.setattr(Optimizer, "plan_sql", slow_plan_sql)
    cache = PlanCache()
    statuses = []
    results = []

    def plan_one(k):
        plan, bindings, status = cache.plan_for(
            db, f"select v from t where k = {k}"
        )
        statuses.append(status)
        results.append((plan, bindings))

    threads = [
        threading.Thread(target=plan_one, args=(k,)) for k in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert len(planned) == 1  # one build for eight concurrent arrivals
    assert sorted(statuses) == ["hit"] * 7 + ["miss"]
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 7
    assert stats["single_flight_waits"] == 7
    # Every caller still got its own binding vector.
    assert sorted(b["__p0"] for _p, b in results) == list(range(8))


def test_failed_build_elects_a_new_builder(db, monkeypatch):
    from repro.errors import OptimizerError
    from repro.optimizer import Optimizer

    real_plan_sql = Optimizer.plan_sql
    attempts = []
    gate = threading.Event()

    def flaky_plan_sql(self, sql):
        attempts.append(sql)
        if len(attempts) == 1:
            gate.wait(timeout=30)  # keep waiters parked on the barrier
            raise OptimizerError("injected planning failure")
        return real_plan_sql(self, sql)

    monkeypatch.setattr(Optimizer, "plan_sql", flaky_plan_sql)
    cache = PlanCache()
    outcomes = []

    def plan_one():
        try:
            outcomes.append(
                cache.plan_for(db, "select v from t where k = 1")[2]
            )
        except OptimizerError:
            outcomes.append("error")

    threads = [threading.Thread(target=plan_one) for _ in range(3)]
    threads[0].start()
    time.sleep(0.05)  # let thread 0 become the builder
    for thread in threads[1:]:
        thread.start()
    time.sleep(0.05)
    gate.set()
    for thread in threads:
        thread.join(timeout=30)
    # The first builder failed; a waiter took over and planned for real.
    assert outcomes.count("error") == 1
    assert outcomes.count("miss") == 1
    assert outcomes.count("hit") == 1


# ----------------------------------------------------------------------
# Observability: counters, slow-query log, explain
# ----------------------------------------------------------------------


def test_slow_query_log_records_offenders(db):
    with QueryService(db, workers=1, slow_query_ms=0.0) as service:
        service.query("select v from t where k = 11")
        service.query("select v from t where k = 12")
        log = service.slow_queries()
        assert len(log) == 2
        assert all(entry.elapsed_ms >= 0.0 for entry in log)
        assert "k = 11" in log[0].sql
        assert service.stats().slow == 2


def test_explain_surfaces_resilience_counters(db):
    with QueryService(db, workers=1, default_timeout=0.2) as service:
        with pytest.raises(QueryTimeout):
            service.query(SLOW_SQL)
        text = service.explain("select v from t where k = 1")
        assert "timeouts=1" in text
        assert "cancelled=0" in text
        assert "inflight=0" in text
        assert "single_flight_waits=" in text


def test_inflight_gauge_tracks_running_work(db):
    service = QueryService(db, workers=1)
    try:
        future = service.submit(SLOW_SQL, timeout=5.0)
        while not future.running():
            time.sleep(0.005)
        deadline = time.monotonic() + 5.0
        while service.stats().inflight != 1:
            assert time.monotonic() < deadline
            time.sleep(0.005)
        service.cancel(future)
        with pytest.raises(QueryCancelled):
            future.result(timeout=30)
        assert service.stats().inflight == 0
    finally:
        service.close()


# ----------------------------------------------------------------------
# Version-sweep locking (the _last_versions race)
# ----------------------------------------------------------------------


def test_concurrent_analyze_and_queries_keep_cache_sound():
    db = Database()
    db.create_table(
        TableSchema(
            "s",
            [Column("k", INTEGER, nullable=False), Column("v", INTEGER)],
            primary_key=("k",),
        ),
        rows=[(i, i + 1) for i in range(100)],
    )
    with QueryService(db, workers=4, queue_depth=512) as service:
        stop = threading.Event()
        errors = []

        def analyze_storm():
            while not stop.is_set():
                db.analyze_table("s")
                time.sleep(0.001)

        analyzer = threading.Thread(target=analyze_storm)
        analyzer.start()
        try:
            futures = [
                service.submit("select v from s where k = :k", {"k": k % 100})
                for k in range(300)
            ]
            for k, future in enumerate(futures):
                rows = future.result(timeout=30).rows
                if rows != [((k % 100) + 1,)]:
                    errors.append((k, rows))
        finally:
            stop.set()
            analyzer.join(timeout=30)
        assert not errors
        # Quiesced: one more bump must be observed by exactly one sweep
        # and leave the tracked versions current.
        db.analyze_table("s")
        assert service.query("select v from s where k = 0").rows == [(1,)]
        assert service._last_versions == (
            db.catalog.version,
            db.catalog.stats_version,
        )
