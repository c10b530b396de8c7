"""Differential check: the block and interpreted engines are one engine.

The ``vector`` executor (column blocks, kernels from
``repro.expr.vector`` / ``repro.expr.compile``) and the interpreted
executor (row-at-a-time tree walking) must produce byte-identical rows
in identical order for every plan. This module runs the seed-7 fuzz
corpus — the same corpus digest-pinned in ``tests/verify/test_gen.py``
— through both engines, plus targeted checks on the metrics/explain
plumbing, the single pull protocol, and the probe-key encoder cache.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.api import execute, plan_query
from repro.core.instrument import COUNTERS
from repro.errors import ExecutionError
from repro.executor import (
    ExecutionContext,
    MODE_INTERPRETED,
    MODE_VECTOR,
    PhysicalOperator,
)
from repro.executor.build import build_executor
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
                vector, _ = run_mode(database, plan, MODE_VECTOR)
                interpreted, _ = run_mode(database, plan, MODE_INTERPRETED)
                assert vector.rows == interpreted.rows, sql
                assert vector.exec_mode == MODE_VECTOR
                assert interpreted.exec_mode == MODE_INTERPRETED

    @pytest.mark.parametrize("mode", [MODE_VECTOR, MODE_INTERPRETED])
    def test_batch_size_does_not_change_results(self, fuzz_setup, mode):
        database, queries = fuzz_setup
        for sql in queries[:10]:
            plan = plan_query(database, sql, config=OptimizerConfig())
            baseline, _ = run_mode(database, plan, MODE_INTERPRETED)
            for batch_size in (1, 3, 7, 4096):
                result, _ = run_mode(
                    database, plan, mode, batch_size=batch_size
                )
                assert result.rows == baseline.rows, (sql, batch_size)


class TestMetrics:
    def test_explain_analyze_reports_rows(self, fuzz_setup):
        database, queries = fuzz_setup
        plan = plan_query(database, queries[0], config=OptimizerConfig())
        result, context = run_mode(database, plan, MODE_VECTOR)
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
        _, small = run_mode(database, plan, MODE_VECTOR, batch_size=2)
        _, large = run_mode(database, plan, MODE_VECTOR, batch_size=100_000)
        total_small = sum(entry.batches for entry in small.metrics.values())
        total_large = sum(entry.batches for entry in large.metrics.values())
        assert total_small > total_large

    def test_one_metrics_layer_per_operator(self, fuzz_setup, monkeypatch):
        """``blocks()`` is the only instrumented wrapper: whichever
        adapter a parent pulls through, every operator that runs is
        wrapped exactly once, so its counters are never doubled."""
        database, queries = fuzz_setup
        pulls = Counter()
        instrumented = PhysicalOperator.blocks

        def counting(self, context):
            pulls[self] += 1
            return instrumented(self, context)

        monkeypatch.setattr(PhysicalOperator, "blocks", counting)
        materialized = False
        for sql in queries:
            plan = plan_query(database, sql, config=OptimizerConfig())
            for mode in (MODE_VECTOR, MODE_INTERPRETED):
                pulls.clear()
                root = build_executor(plan, database)
                context = ExecutionContext(database, mode=mode)
                rows = root.execute(context)
                tree, stack = [], [root]
                while stack:
                    operator = stack.pop()
                    tree.append(operator)
                    stack.extend(operator.children())
                assert set(context.metrics) == {
                    operator for operator in tree if pulls[operator]
                }, sql
                assert all(pulls[operator] <= 1 for operator in tree), sql
                assert context.metrics[root].rows == len(rows), sql
                analyzed = root.explain(analyze=context)
                if mode == MODE_INTERPRETED:
                    assert "mat=" not in analyzed, sql
                else:
                    materialized |= "mat=" in analyzed
        assert materialized, "the block engine must materialize somewhere"


class TestProbeCounters:
    def test_index_probe_counters_move_during_execution(self, simple_db):
        # End to end: an index nested-loop plan counts the keys it
        # probes, in both engines (a NULL probe value is never probed).
        sql = "SELECT a.x, b.z FROM a, b WHERE a.x = b.x ORDER BY a.x"
        plan = plan_query(
            database=simple_db,
            sql=sql,
            config=OptimizerConfig.db2_faithful(True),
        )
        assert "nested-loop join (index" in plan.explain()
        probed = {}
        for mode in ("vector", "interpreted"):
            COUNTERS["exec.index_probe.probes"] = 0
            context = ExecutionContext(simple_db, mode=mode)
            assert execute(simple_db, plan, context=context).rows
            probed[mode] = COUNTERS["exec.index_probe.probes"]
        assert probed["vector"] == probed["interpreted"] > 0


class TestModeSelection:
    def test_default_engine_is_vector(self, monkeypatch, fuzz_setup):
        """With REPRO_EXEC unset the block engine runs everywhere a
        statement can enter."""
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

    @pytest.mark.parametrize("mode", ["vectorized", "compiled"])
    def test_invalid_mode_rejected(self, fuzz_setup, mode):
        """One validation, at every door, naming the two engines —
        a service fails at construction, not on its first statement."""
        from repro import run_query
        from repro.service import QueryService

        database, queries = fuzz_setup
        with pytest.raises(ExecutionError, match="interpreted.*vector"):
            ExecutionContext(database, mode=mode)
        with pytest.raises(ExecutionError, match="interpreted.*vector"):
            run_query(database, queries[0], mode=mode)
        with pytest.raises(ExecutionError, match="interpreted.*vector"):
            QueryService(database, workers=1, mode=mode)

    @pytest.mark.parametrize("value", ["turbo", "compiled"])
    def test_invalid_env_rejected(self, monkeypatch, fuzz_setup, value):
        monkeypatch.setenv("REPRO_EXEC", value)
        from repro.executor.context import default_exec_mode

        database, _ = fuzz_setup
        with pytest.raises(ExecutionError, match="interpreted.*vector"):
            default_exec_mode()
        with pytest.raises(ExecutionError, match="interpreted.*vector"):
            ExecutionContext(database)

    def test_unexecuted_result_names_no_engine(self, fuzz_setup):
        from repro import run_query

        database, queries = fuzz_setup
        explained = run_query(database, "explain " + queries[0])
        assert explained.exec_mode is None
        for mode in (MODE_VECTOR, MODE_INTERPRETED):
            assert run_query(database, queries[0], mode=mode).exec_mode == mode
