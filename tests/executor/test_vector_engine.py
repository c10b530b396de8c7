"""The vector engine against its reference — prove they are one engine.

Every test here runs the same plan through ``vector`` and the
``interpreted`` reference and asserts byte-identical rows: NULL-heavy
three-valued predicates, parameterized plans re-executed under fresh
bindings, and cancellation tripping *inside* a block loop, through
every pull adapter (the seed-7 corpus differential and its batch-size
sweeps are in ``test_exec_modes.py``). The metrics tests pin the
vector-specific observability (``sel=`` and ``mat=`` in
explain(analyze)).
"""

from __future__ import annotations

import pytest

from repro import Column, Database, TableSchema
from repro.api import execute, plan_query
from repro.errors import ExecutionError, QueryCancelled, QueryTimeout
from repro.executor import (
    ExecutionContext,
    MODE_INTERPRETED,
    MODE_VECTOR,
    resolve_batch_size,
)
from repro.executor.build import build_executor
from repro.optimizer import OptimizerConfig
from repro.sqltypes import INTEGER, varchar
from repro.verify.faults import inject_token_faults
from repro.verify.gen import QueryGenerator, generate_schema

SEED = 7
N_QUERIES = 30

ALL_MODES = (MODE_INTERPRETED, MODE_VECTOR)


@pytest.fixture(scope="module")
def fuzz_setup():
    schema = generate_schema(SEED)
    database = schema.build()
    generator = QueryGenerator(schema, SEED)
    queries = [generator.generate().sql() for _ in range(N_QUERIES)]
    return database, queries


@pytest.fixture(scope="module")
def nullable_db() -> Database:
    """A small table where most non-key columns are NULL-riddled."""
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("k", INTEGER, nullable=False),
                Column("a", INTEGER),
                Column("b", INTEGER),
                Column("s", varchar(8)),
            ],
            primary_key=("k",),
        ),
        rows=[
            (
                i,
                None if i % 3 == 0 else i % 10,
                None if i % 5 == 0 else (i * 7) % 10,
                None if i % 4 == 0 else f"v{i % 6}",
            )
            for i in range(400)
        ],
    )
    return db


def run_mode(database, plan, mode, **kwargs):
    context = ExecutionContext(database, mode=mode, **kwargs)
    return execute(database, plan, context=context), context


def assert_engines_agree(database, sql, config=None, parameters=None):
    plan = plan_query(database, sql, config=config or OptimizerConfig())
    results = {}
    for mode in ALL_MODES:
        context = ExecutionContext(database, mode=mode)
        results[mode] = execute(
            database, plan, context=context, parameters=parameters
        ).rows
    assert results[MODE_VECTOR] == results[MODE_INTERPRETED], sql
    return results[MODE_VECTOR]


class TestNullHeavyPredicates:
    """Targeted 3VL shapes over NULL-riddled columns.

    The fuzz corpus hits these statistically; this class pins the exact
    shapes where selection-vector logic could diverge from row
    semantics (unknown vs False in AND/OR/NOT, NULL in IN lists).
    """

    QUERIES = (
        "SELECT k FROM t WHERE a > 3 OR b < 5 ORDER BY k",
        "SELECT k FROM t WHERE a > 3 AND b < 5 ORDER BY k",
        "SELECT k FROM t WHERE NOT (a > 3) ORDER BY k",
        "SELECT k FROM t WHERE NOT (a > 3 OR b < 5) ORDER BY k",
        "SELECT k FROM t WHERE a IN (1, 2, 9) ORDER BY k",
        "SELECT k FROM t WHERE NOT (a IN (1, 2, 9)) ORDER BY k",
        "SELECT k FROM t WHERE a IS NULL AND b IS NOT NULL ORDER BY k",
        "SELECT k FROM t WHERE a IS NULL OR s = 'v1' ORDER BY k",
        "SELECT k FROM t WHERE (a > 3 AND s = 'v2') OR b = 7 ORDER BY k",
        "SELECT k, a FROM t WHERE a = b OR a > b ORDER BY k",
        "SELECT k FROM t WHERE a + b > 8 ORDER BY k",
        "SELECT s, COUNT(*), SUM(a) FROM t GROUP BY s ORDER BY s",
    )

    def test_null_heavy_engines_agree(self, nullable_db):
        for sql in self.QUERIES:
            rows = assert_engines_agree(nullable_db, sql)
            # Sanity: the fixture must actually exercise the predicate
            # (all-empty results would vacuously pass).
            if "COUNT" not in sql:
                assert 0 < len(rows) < 400, sql

    def test_disabled_config_agrees_too(self, nullable_db):
        for sql in self.QUERIES[:6]:
            assert_engines_agree(
                nullable_db, sql, config=OptimizerConfig.disabled()
            )


@pytest.fixture(scope="module")
def zero_divisor_db() -> Database:
    """Row 1 divides by zero in ``b``, row 2 in ``a``."""
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("k", INTEGER, nullable=False),
                Column("a", INTEGER),
                Column("b", INTEGER),
            ],
            primary_key=("k",),
        ),
        rows=[(1, 5, 0), (2, 0, 5), (3, 1, 1)],
    )
    return db


class TestErrorIdentity:
    """Engines raise the same error, not just return the same rows: a
    column pass meets row 2's ``10 / a`` before row 1's ``10 / b``, and
    the block is re-run row-major to raise the interpreter's error."""

    @pytest.mark.parametrize(
        "sql",
        [
            "select 10 / a, 10 / b from t order by k",
            "select sum(10 / a), sum(10 / b) from t",
            "select k, case when a > 100 then 1 / b else 10 / a end + 10 / b"
            " from t",
        ],
        ids=["projection", "group_by_arguments", "nested_value"],
    )
    def test_engines_raise_the_same_error(self, zero_divisor_db, sql):
        plan = plan_query(zero_divisor_db, sql, config=OptimizerConfig())
        outcomes = {}
        for mode in ALL_MODES:
            with pytest.raises(Exception) as raised:
                run_mode(zero_divisor_db, plan, mode)
            outcomes[mode] = f"{type(raised.value).__name__}: {raised.value}"
        assert outcomes[MODE_INTERPRETED] == (
            "ExpressionError: division by zero in (10 / t.b)"
        )
        assert outcomes[MODE_VECTOR] == outcomes[MODE_INTERPRETED]


class TestParameterBindings:
    def test_parameterized_plan_engines_agree(self, nullable_db):
        sql = "SELECT k FROM t WHERE a > :lo AND b < :hi ORDER BY k"
        assert_engines_agree(
            nullable_db, sql, parameters={"lo": 2, "hi": 8}
        )

    def test_rebinding_changes_rows_not_kernels(self, nullable_db):
        from repro.expr.vector import reset_vector_stats, vector_stats

        sql = "SELECT k FROM t WHERE a > :lo ORDER BY k"
        plan = plan_query(nullable_db, sql, config=OptimizerConfig())

        def run(lo):
            context = ExecutionContext(nullable_db, mode=MODE_VECTOR)
            return execute(
                nullable_db, plan, context=context, parameters={"lo": lo}
            ).rows

        first = run(1)
        reset_vector_stats()
        second = run(8)
        stats = vector_stats()
        # The second execution reuses the memoized kernel: every filter
        # compilation it requests is a memo hit.
        assert stats.get("vector.filter_calls", 0) > 0
        assert stats.get("vector.filter_memo_hits") == stats.get(
            "vector.filter_calls"
        )
        assert first != second  # the binding, not the kernel, changed
        for lo, rows in ((1, first), (8, second)):
            reference = execute(
                nullable_db,
                plan,
                context=ExecutionContext(nullable_db, mode=MODE_INTERPRETED),
                parameters={"lo": lo},
            ).rows
            assert rows == reference

    def test_unbound_parameter_raises_in_vector_mode(self, nullable_db):
        from repro.errors import ExpressionError

        sql = "SELECT k FROM t WHERE a > :lo ORDER BY k"
        plan = plan_query(nullable_db, sql, config=OptimizerConfig())
        with pytest.raises(ExpressionError):
            run_mode(nullable_db, plan, MODE_VECTOR)


class TestCancellation:
    def test_fault_mid_vector_batch(self, fuzz_setup):
        database, queries = fuzz_setup
        plan = plan_query(database, queries[0], config=OptimizerConfig())
        # Token checkpoints fire at every blocks() pull; with a small
        # batch size the second checkpoint lands mid-stream, so the
        # fault surfaces from inside the block loop.
        with inject_token_faults(2, kind="timeout"):
            from repro.executor.context import CancelToken

            context = ExecutionContext(
                database,
                mode=MODE_VECTOR,
                batch_size=2,
                cancel_token=CancelToken(),
            )
            with pytest.raises(QueryTimeout):
                execute(database, plan, context=context)

    @pytest.mark.parametrize("mode", ALL_MODES)
    @pytest.mark.parametrize("pull", ["batches", "rows", "execute"])
    def test_explicit_cancel_mid_plan_stops_every_adapter(
        self, fuzz_setup, pull, mode
    ):
        """``batches()``, ``rows()`` and ``execute()`` all drain
        ``blocks()``, so none of them can bypass its checkpoint."""
        database, queries = fuzz_setup
        plan = plan_query(database, queries[0], config=OptimizerConfig())
        root = build_executor(plan, database)
        with inject_token_faults(2, kind="cancel"):
            from repro.executor.context import CancelToken

            context = ExecutionContext(
                database,
                mode=mode,
                batch_size=2,
                cancel_token=CancelToken(),
            )
            with pytest.raises(QueryCancelled):
                list(getattr(root, pull)(context))

    def test_untripped_token_is_harmless(self, nullable_db):
        from repro.executor.context import CancelToken

        sql = "SELECT k FROM t WHERE a > 3 ORDER BY k"
        plan = plan_query(nullable_db, sql, config=OptimizerConfig())
        context = ExecutionContext(
            nullable_db, mode=MODE_VECTOR, cancel_token=CancelToken()
        )
        result = execute(nullable_db, plan, context=context)
        reference, _ = run_mode(nullable_db, plan, MODE_INTERPRETED)
        assert result.rows == reference.rows


class TestVectorMetrics:
    def test_selectivity_and_materializations_render(self, nullable_db):
        sql = (
            "SELECT k, a FROM t WHERE a > 3 AND b < 9 ORDER BY k"
        )
        plan = plan_query(nullable_db, sql, config=OptimizerConfig())
        result, context = run_mode(nullable_db, plan, MODE_VECTOR)
        assert result.rows
        entries = list(context.metrics.values())
        filters = [e for e in entries if e.rows_in > 0]
        assert filters, "a filtering operator must report rows_in"
        for entry in filters:
            assert 0.0 <= entry.rows / entry.rows_in <= 1.0
        assert any(e.materializations > 0 for e in entries), (
            "some operator must materialize vector blocks back to rows"
        )
        assert "sel=" in result.analyzed
        assert "mat=" in result.analyzed

    def test_reference_engine_reports_no_materializations(self, nullable_db):
        sql = "SELECT k FROM t WHERE a > 3 ORDER BY k"
        plan = plan_query(nullable_db, sql, config=OptimizerConfig())
        result, context = run_mode(nullable_db, plan, MODE_INTERPRETED)
        assert all(
            e.materializations == 0 for e in context.metrics.values()
        )
        assert "mat=" not in result.analyzed


class TestBatchSizeResolution:
    def test_vector_mode_resolves_default(self):
        from repro.executor import DEFAULT_BATCH_SIZE

        assert resolve_batch_size(MODE_VECTOR, 0) == DEFAULT_BATCH_SIZE
        assert resolve_batch_size(MODE_INTERPRETED, 0) == 1

    def test_explicit_values_are_identity(self):
        for size in (1, 7, 4096):
            assert resolve_batch_size(MODE_VECTOR, size) == size
            # Idempotent: re-resolving a resolved value changes nothing.
            assert resolve_batch_size(
                MODE_VECTOR, resolve_batch_size(MODE_VECTOR, size)
            ) == size

    def test_bool_rejected(self):
        with pytest.raises(ExecutionError):
            resolve_batch_size(MODE_VECTOR, True)
        with pytest.raises(ExecutionError):
            resolve_batch_size(MODE_VECTOR, False)

    def test_env_var_selects_vector(self, monkeypatch, nullable_db):
        monkeypatch.setenv("REPRO_EXEC", "vector")
        context = ExecutionContext(nullable_db)
        assert context.mode == MODE_VECTOR
        assert context.vectorized
