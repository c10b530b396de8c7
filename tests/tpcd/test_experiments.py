"""The experiment functions themselves, at miniature scale.

The benchmark CLI (`python -m repro.bench`) is a deliverable; these
tests pin that each experiment runs, asserts what it claims, and fills
its report correctly — at SF small enough for the unit-test budget.
"""

import pytest

from repro.api import execute
from repro.bench import run_experiment
from repro.bench.experiments import (
    figure1_database,
    tpcd_database,
    warehouse_database,
)
from repro.optimizer.plan import OpKind


class TestTable1Experiment:
    @pytest.fixture(scope="class")
    def report(self):
        return run_experiment("table1", scale_factor=0.002, runs=2)

    def test_ratio_recorded(self, report):
        assert report.data["wall_ratio"] > 0
        assert report.data["sim_ratio"] > 0

    def test_production_wins(self, report):
        # At tiny scale both wall-clock and the simulated model are
        # noisy (simulated elapsed folds in measured CPU time, and the
        # production plan trades I/O for avoided sorts); the
        # optimizer's cost estimates are the deterministic quantity
        # that must favour production.
        assert report.data["est_ratio"] > 1.0
        assert report.data["sim_ratio"] > 0.0

    def test_rows_rendered(self, report):
        assert any("wall-clock" in str(row[0]) for row in report.rows)
        assert report.headers


class TestComplexityExperiment:
    def test_monotone_growth(self):
        report = run_experiment("complexity", tables=4)
        counts = report.data["counts"]
        assert counts == sorted(counts)
        assert counts[-1] > counts[0] > 0
        # ...but bounded: the paper's O(n^2) factor for n = 4 orders,
        # not an explosion.
        assert counts[-1] <= counts[0] * (1 + 4) ** 2


class TestFigureExperiments:
    def test_fig7_checks_pass(self):
        report = run_experiment("fig7", scale_factor=0.002)
        assert all(row[1] == "yes" for row in report.rows), report.render()

    def test_fig8_checks_pass(self):
        report = run_experiment("fig8", scale_factor=0.002)
        assert all(row[1] == "yes" for row in report.rows), report.render()

    def test_fig1_plan_recorded(self):
        report = run_experiment("fig1")
        plan = report.data["plan"]
        # The figure's shape: an order-based GROUP BY, never a hash.
        assert plan.find_all(OpKind.GROUP_SORTED), plan.explain()
        assert execute(figure1_database(), plan).rows


class TestAblationExperiments:
    def test_reduce_ablation_shows_fewer_sorts(self):
        report = run_experiment("ablation_reduce")
        rows = {row[0]: row for row in report.rows}
        assert int(rows["reduction ON"][3]) < int(rows["reduction OFF"][3])
        # Reduction strips region (constant) and cat (key-determined):
        # any sort left is on one column; without it some sort is wider.
        widths = {
            label: [
                len(node.args["order"])
                for node in report.data[label].find_all(OpKind.SORT)
            ]
            for label in rows
        }
        assert all(width == 1 for width in widths["reduction ON"])
        assert any(width >= 2 for width in widths["reduction OFF"])

    def test_cover_ablation_shows_extra_sort(self):
        report = run_experiment("ablation_cover")
        rows = {row[0]: row for row in report.rows}
        assert int(rows["cover OFF"][3]) > int(rows["cover ON"][3])
        # One sort serves GROUP BY and ORDER BY.
        assert not any(
            node.args.get("reason") == "order by"
            for node in report.data["cover ON"].find_all(OpKind.SORT)
        )
        assert execute(warehouse_database(), report.data["cover OFF"]).rows

    @pytest.mark.parametrize(
        "experiment_id", ["ablation_sortahead", "ablation_hash"]
    )
    def test_query3_ablations_agree_on_rows(self, experiment_id):
        # The experiment raises if its two configs disagree on rows.
        report = run_experiment(experiment_id, scale_factor=0.002)
        assert len(report.rows) == 2
        for label, *_ in report.rows:
            assert execute(tpcd_database(0.002), report.data[label]).rows

    def test_order_deps_never_add_a_sort(self):
        report = run_experiment("order_deps")
        assert len(report.rows) == 3
        assert all(on <= off for _label, on, off in report.rows)


class TestSuiteExperiment:
    def test_six_queries_and_a_geomean(self):
        report = run_experiment("suite", scale_factor=0.002, runs=1)
        assert len(report.data["ratios"]) == 6
        assert report.data["geomean"] > 0


class TestPrefetchAblation:
    def test_no_prefetch_costs_more_simulated_io(self):
        from repro.storage.buffer import BufferPool

        original = BufferPool.PREFETCH_WINDOW
        report = run_experiment(
            "ablation_prefetch", scale_factor=0.002, runs=1
        )
        # The window is restored even though the experiment mutates it.
        assert BufferPool.PREFETCH_WINDOW == original
        by_window = {row[0]: float(row[1]) for row in report.rows}
        assert by_window[1] >= by_window[32]
