"""QueryService behaviour: concurrency, backpressure, lifecycle.

The backpressure test stalls the single worker on an event so the
admission queue fills deterministically — no sleeps, no racing the
scheduler.
"""

import threading

import pytest

from repro import Column, Database, TableSchema
from repro.errors import AdmissionError, ServiceError
from repro.service import QueryService
from repro.sqltypes import INTEGER


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
    return db


def test_concurrent_bindings_get_their_own_rows(db):
    """One cached plan, many in-flight bindings, zero cross-talk."""
    with QueryService(db, workers=4, queue_depth=256) as service:
        futures = [
            (k, service.submit("select v from t where k = :k", {"k": k}))
            for k in range(100)
        ]
        for k, future in futures:
            assert future.result(timeout=30).rows == [(k * 10,)]
        stats = service.stats()
        assert stats.queries == 100
        assert stats.cache["misses"] == 1
        assert stats.cache["hits"] == 99
        assert stats.p95_ms >= stats.p50_ms > 0.0


def test_auto_parameterized_statements_share_one_plan(db):
    with QueryService(db, workers=2) as service:
        rows = [
            service.query(f"select v from t where k = {k}").rows
            for k in (3, 5, 8)
        ]
        assert rows == [[(30,)], [(50,)], [(80,)]]
        assert service.stats().cache["misses"] == 1


def test_admission_queue_rejects_when_full(db):
    service = QueryService(db, workers=1, queue_depth=1)
    release = threading.Event()
    entered = threading.Event()
    inner_run = service._run

    def stalling_run(sql, parameters, config, token):
        entered.set()
        release.wait(timeout=30)
        return inner_run(sql, parameters, config, token)

    service._run = stalling_run
    try:
        sql = "select v from t where k = 1"
        running = service.submit(sql)
        assert entered.wait(timeout=30)  # worker is stalled inside _run
        queued = service.submit(sql)  # fills the depth-1 queue
        with pytest.raises(AdmissionError):
            service.submit(sql)
        assert service.stats().rejected == 1
        release.set()
        assert running.result(timeout=30).rows == [(10,)]
        assert queued.result(timeout=30).rows == [(10,)]
    finally:
        release.set()
        service.close()


def test_errors_are_delivered_not_fatal(db):
    with QueryService(db, workers=1) as service:
        with pytest.raises(Exception):
            service.query("select nope from missing_table")
        # The worker survived the failure.
        assert service.query("select v from t where k = 2").rows == [(20,)]


def test_explain_reports_cache_verdict_and_latency(db):
    with QueryService(db, workers=1) as service:
        service.query("select v from t where k = 4")
        text = service.explain("select v from t where k = 9")
        assert "plan cache: hit" in text
        assert "p50=" in text and "p95=" in text


def test_closed_service_refuses_work(db):
    service = QueryService(db, workers=1)
    service.close()
    with pytest.raises(ServiceError):
        service.submit("select v from t where k = 1")


def test_interpreted_mode_service_agrees(db):
    with QueryService(db, workers=2, mode="interpreted") as interp, \
            QueryService(db, workers=2, mode="vector") as vector:
        sql = "select k, v from t where v > 1800 order by k"
        assert interp.query(sql).rows == vector.query(sql).rows
        assert interp.query(sql).exec_mode == "interpreted"
