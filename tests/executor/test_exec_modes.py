"""Differential check: compiled and interpreted engines are one engine.

The compiled executor (batch kernels from ``repro.expr.compile``) and
the interpreted executor (row-at-a-time tree walking) must produce
byte-identical rows in identical order for every plan. This module runs
the seed-7 fuzz corpus — the same corpus digest-pinned in
``tests/verify/test_gen.py`` — through both engines, plus targeted
checks on the metrics/explain plumbing and the probe-key encoder cache.
"""

from __future__ import annotations

import pytest

from repro.api import execute, plan_query
from repro.core.instrument import COUNTERS
from repro.executor import (
    ExecutionContext,
    MODE_COMPILED,
    MODE_INTERPRETED,
    MODE_VECTOR,
)
from repro.optimizer import OptimizerConfig
from repro.verify.gen import QueryGenerator, generate_schema

SEED = 7
N_QUERIES = 30


@pytest.fixture(scope="module")
def fuzz_setup():
    schema = generate_schema(SEED)
    database = schema.build()
    generator = QueryGenerator(schema, SEED)
    queries = [generator.generate().sql() for _ in range(N_QUERIES)]
    return database, queries


def run_mode(database, plan, mode, **kwargs):
    context = ExecutionContext(database, mode=mode, **kwargs)
    return execute(database, plan, context=context), context


class TestSeedCorpusDifferential:
    def test_engines_agree_on_seed7_corpus(self, fuzz_setup):
        database, queries = fuzz_setup
        configs = (OptimizerConfig(), OptimizerConfig.disabled())
        for sql in queries:
            for config in configs:
                plan = plan_query(database, sql, config=config)
                compiled, _ = run_mode(database, plan, MODE_COMPILED)
                interpreted, _ = run_mode(database, plan, MODE_INTERPRETED)
                assert compiled.rows == interpreted.rows, sql
                assert compiled.exec_mode == MODE_COMPILED
                assert interpreted.exec_mode == MODE_INTERPRETED

    def test_batch_size_does_not_change_results(self, fuzz_setup):
        database, queries = fuzz_setup
        for sql in queries[:10]:
            plan = plan_query(database, sql, config=OptimizerConfig())
            baseline, _ = run_mode(database, plan, MODE_COMPILED)
            for batch_size in (1, 3, 7, 4096):
                result, _ = run_mode(
                    database, plan, MODE_COMPILED, batch_size=batch_size
                )
                assert result.rows == baseline.rows, (sql, batch_size)


class TestMetrics:
    def test_explain_analyze_reports_rows(self, fuzz_setup):
        database, queries = fuzz_setup
        plan = plan_query(database, queries[0], config=OptimizerConfig())
        result, context = run_mode(database, plan, MODE_COMPILED)
        assert context.metrics, "execution should populate operator metrics"
        root_metrics = [
            entry
            for entry in context.metrics.values()
            if entry.rows == len(result.rows)
        ]
        assert root_metrics, "some operator must emit exactly the result rows"
        assert "rows=" in result.analyzed
        assert "time=" in result.analyzed
        assert "not executed" not in result.analyzed

    def test_unexecuted_explain_is_marked(self, fuzz_setup):
        database, queries = fuzz_setup
        from repro.executor.build import build_operator

        plan = plan_query(database, queries[0], config=OptimizerConfig())
        context = ExecutionContext(database)
        operator = build_operator(plan.root, database)
        assert "[not executed]" in operator.explain(analyze=context)

    def test_batch_counters_track_batch_size(self, fuzz_setup):
        database, queries = fuzz_setup
        plan = plan_query(database, queries[0], config=OptimizerConfig())
        _, small = run_mode(database, plan, MODE_COMPILED, batch_size=2)
        _, large = run_mode(database, plan, MODE_COMPILED, batch_size=100_000)
        total_small = sum(entry.batches for entry in small.metrics.values())
        total_large = sum(entry.batches for entry in large.metrics.values())
        assert total_small > total_large


class TestProbeEncoderCache:
    def test_adjacent_duplicate_keys_encode_once(self):
        # Regression: the pre-batching join re-ran encode_index_key for
        # every outer row. The encoder is now built once per probe loop
        # and caches the last key, so an ordered outer stream with
        # duplicate join values re-encodes only on value change.
        from repro.executor.joins import make_probe_encoder
        from repro.storage.database import encode_index_key

        for key in ("exec.index_probe.probes", "exec.index_probe.encodes"):
            COUNTERS[key] = 0
        encode = make_probe_encoder([False])
        stream = [(1,), (1,), (1,), (2,), (2,), (3,), (3,), (3,), (3,)]
        keys = [encode(values) for values in stream]
        assert keys == [encode_index_key(v, [False]) for v in stream]
        assert COUNTERS["exec.index_probe.probes"] == len(stream)
        assert COUNTERS["exec.index_probe.encodes"] == 3

    def test_index_probe_counters_move_during_execution(self, simple_db):
        # End to end: an index nested-loop plan routes its probes
        # through the shared encoder (both engines use it).
        from repro.bench.experiments import db2_faithful_config

        sql = "SELECT a.x, b.z FROM a, b WHERE a.x = b.x ORDER BY a.x"
        plan = plan_query(
            database=simple_db, sql=sql, config=db2_faithful_config(True)
        )
        if "index" not in plan.explain():
            pytest.skip("optimizer chose a plan without an index probe")
        for key in ("exec.index_probe.probes", "exec.index_probe.encodes"):
            COUNTERS[key] = 0
        result = execute(simple_db, plan)
        assert result.rows
        probes = COUNTERS["exec.index_probe.probes"]
        encodes = COUNTERS["exec.index_probe.encodes"]
        assert probes > 0
        assert encodes <= probes


class TestModeSelection:
    def test_default_engine_is_vector(self, monkeypatch, fuzz_setup):
        """With REPRO_EXEC unset the block engine runs everywhere a
        statement can enter. The row-closure engine is no longer the
        default, so its coverage must stay explicit: the differentials
        above and tests/service/test_replay.py, test_fault_replay.py
        and test_resilience.py name ``compiled`` as a mode."""
        from repro import run_query
        from repro.service import QueryService

        database, queries = fuzz_setup
        monkeypatch.delenv("REPRO_EXEC", raising=False)
        assert ExecutionContext(database).mode == MODE_VECTOR
        assert run_query(database, queries[0]).exec_mode == MODE_VECTOR
        with QueryService(database, workers=1) as service:
            assert service.query(queries[0]).exec_mode == MODE_VECTOR

    def test_env_override(self, monkeypatch, fuzz_setup):
        database, queries = fuzz_setup
        monkeypatch.setenv("REPRO_EXEC", "interpreted")
        context = ExecutionContext(database)
        assert context.mode == MODE_INTERPRETED
        assert context.batch_size == 1

    def test_invalid_mode_rejected(self, fuzz_setup):
        database, _ = fuzz_setup
        from repro.errors import ExecutionError

        with pytest.raises(ExecutionError):
            ExecutionContext(database, mode="vectorized")

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "turbo")
        from repro.errors import ExecutionError
        from repro.executor.context import default_exec_mode

        with pytest.raises(ExecutionError):
            default_exec_mode()
