"""The benchmark harness: registry, rendering, and one cheap experiment."""

import pytest

from repro.bench import available_experiments, run_experiment
from repro.bench.harness import ExperimentReport
from repro.errors import BenchmarkError


class TestRegistry:
    def test_all_paper_artifacts_registered(self):
        # Exactly what EXPERIMENTS.md reproduces: a system benchmark
        # belongs in perf/, not here.
        ids = {experiment_id for experiment_id, _ in available_experiments()}
        assert ids == {
            "table1", "fig1", "fig6", "fig7", "fig8", "complexity",
            "ablation_reduce", "ablation_cover", "ablation_sortahead",
            "ablation_hash", "ablation_prefetch", "order_deps", "suite",
        }

    def test_unknown_experiment(self):
        with pytest.raises(BenchmarkError):
            run_experiment("table99")

    def test_titles_present(self):
        for _experiment_id, title in available_experiments():
            assert title


class TestReportRendering:
    def test_table_rendering(self):
        report = ExperimentReport("x", "title", headers=("a", "bb"))
        report.add_row(1, "yes")
        report.add_row(22, "no")
        text = report.render()
        assert "== x: title ==" in text
        assert "a" in text and "bb" in text
        assert "22" in text

    def test_blocks_and_notes(self):
        report = ExperimentReport("x", "t")
        report.add_block("plan", "line1\nline2")
        report.add_note("hello")
        text = report.render()
        assert "-- plan --" in text
        assert "line1" in text
        assert "note: hello" in text


class TestFig6Experiment:
    """fig6 is the cheapest full experiment; run it as a harness test."""

    @pytest.fixture(scope="class")
    def report(self):
        return run_experiment("fig6")

    def test_production_single_sort(self, report):
        rows = {row[0]: row for row in report.rows}
        assert rows["order opt ON"][1] == 1
        assert rows["order opt ON"][2] == 0  # no order-by sorts
        assert rows["order opt ON"][3] == "sorted"  # order-based GROUP BY

    def test_disabled_needs_more_sorts(self, report):
        rows = {row[0]: row for row in report.rows}
        assert rows["order opt OFF"][1] > rows["order opt ON"][1]

    def test_plans_recorded(self, report):
        assert "order opt ON" in report.data
        plan = report.data["order opt ON"]
        assert "sort" in plan.explain()
