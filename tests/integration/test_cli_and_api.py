"""CLI entry point and API-surface coverage."""

import pytest

from repro import Column, Database, TableSchema, run_query
from repro.bench.__main__ import main as bench_main
from repro.cost.model import Cost
from repro.sqltypes import INTEGER


class TestBenchCli:
    def test_list(self, capsys):
        assert bench_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table1" in out and "fig7" in out

    def test_single_experiment(self, capsys):
        assert bench_main(["fig6"]) == 0
        out = capsys.readouterr().out
        assert "fig6" in out
        assert "order opt ON" in out

    def test_unknown_experiment_raises(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            bench_main(["nope"])

    def test_json_dir_is_rejected(self, tmp_path):
        # No experiment writes a payload; perf/ owns machine-readable
        # output.
        with pytest.raises(SystemExit):
            bench_main(["fig6", "--json-dir", str(tmp_path)])
        assert not list(tmp_path.iterdir())


class TestQueryResultSurface:
    @pytest.fixture(scope="class")
    def db(self):
        database = Database()
        database.create_table(
            TableSchema(
                "t",
                [Column("a", INTEGER, nullable=False)],
                primary_key=("a",),
            ),
            rows=[(i,) for i in range(10)],
        )
        return database

    def test_len_and_names(self, db):
        result = run_query(db, "select a from t")
        assert len(result) == 10
        assert result.column_names == ("a",)

    def test_simulated_elapsed_combines_io_and_cpu(self, db):
        result = run_query(db, "select a from t", cold_cache=True)
        assert result.simulated_elapsed_ms >= result.simulated_io_ms
        assert result.elapsed_seconds >= 0

    def test_plan_accessible(self, db):
        result = run_query(db, "select a from t order by a")
        assert result.plan.cost.total_ms > 0
        assert "t" in result.plan.explain()


class TestCostSurface:
    def test_str_rendering(self):
        rendered = str(Cost(1.5, 2.5))
        assert "4.00ms" in rendered
        assert "io 1.50" in rendered

    def test_zero_cost_identity(self):
        from repro.cost.model import ZERO_COST

        assert (ZERO_COST + Cost(1.0, 2.0)).total_ms == 3.0
