"""The Section 8.1 experiment at test scale: Query 3 plans and results."""

import pytest

from repro import OptimizerConfig, run_query
from repro.optimizer.plan import OpKind
from repro.tpcd import QUERY_1, QUERY_3, tpcd_query


db2_faithful = OptimizerConfig.db2_faithful


class TestQuery3Plans:
    def test_figure7_shape(self, tpcd_db):
        """Order opt on: ordered NLJ into lineitem's clustered index, no
        group-by sort, one top sort for the ORDER BY."""
        result = run_query(tpcd_db, QUERY_3, config=db2_faithful(True))
        plan = result.plan
        ordered_nlj = [
            node
            for node in plan.find_all(OpKind.NLJ_INDEX)
            if node.args.get("ordered") and node.args["index"] == "idx_l_orderkey"
        ]
        assert ordered_nlj, plan.explain()
        group_sorts = [
            node
            for node in plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "group by"
        ]
        assert not group_sorts, plan.explain()
        assert plan.find_all(OpKind.GROUP_SORTED)
        top_sorts = [
            node
            for node in plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "order by"
        ]
        assert len(top_sorts) == 1

    def test_figure8_shape(self, tpcd_db):
        """Order opt off: merge join on the order key, an extra sort for
        the GROUP BY, and the top ORDER BY sort."""
        result = run_query(tpcd_db, QUERY_3, config=db2_faithful(False))
        plan = result.plan
        assert plan.find_all(OpKind.MERGE_JOIN), plan.explain()
        group_sorts = [
            node
            for node in plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "group by"
        ]
        assert group_sorts, plan.explain()
        # No ordered NLJ awareness in the disabled build.
        assert not any(
            node.args.get("ordered")
            for node in plan.find_all(OpKind.NLJ_INDEX)
        )

    def test_disabled_has_more_sorts(self, tpcd_db):
        enabled = run_query(tpcd_db, QUERY_3, config=db2_faithful(True))
        disabled = run_query(tpcd_db, QUERY_3, config=db2_faithful(False))
        assert disabled.plan.sort_count() > enabled.plan.sort_count()

    def test_results_identical(self, tpcd_db):
        enabled = run_query(tpcd_db, QUERY_3, config=db2_faithful(True))
        disabled = run_query(tpcd_db, QUERY_3, config=db2_faithful(False))
        assert enabled.rows  # non-empty at the fixture scale
        assert enabled.rows == disabled.rows  # same ORDER BY, same rows

    def test_output_ordered_by_rev_desc(self, tpcd_db):
        result = run_query(tpcd_db, QUERY_3)
        revenues = [row[1] for row in result.rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_estimated_cost_advantage(self, tpcd_db):
        enabled = run_query(tpcd_db, QUERY_3, config=db2_faithful(True))
        disabled = run_query(tpcd_db, QUERY_3, config=db2_faithful(False))
        assert disabled.plan.cost.total_ms > enabled.plan.cost.total_ms


class TestQuery1:
    def test_runs_and_groups(self, tpcd_db):
        result = run_query(tpcd_db, QUERY_1, config=db2_faithful(True))
        assert 1 <= len(result.rows) <= 6  # few flag/status combinations
        flags = [(row[0], row[1]) for row in result.rows]
        assert flags == sorted(flags)

    def test_group_by_order_by_share_one_sort(self, tpcd_db):
        result = run_query(tpcd_db, QUERY_1, config=db2_faithful(True))
        assert result.plan.sort_count() <= 1


class TestOtherQueries:
    @pytest.mark.parametrize("name", ["q4", "q5", "q10"])
    def test_runs_in_both_modes(self, tpcd_db, name):
        sql = tpcd_query(name)
        enabled = run_query(tpcd_db, sql, config=db2_faithful(True))
        disabled = run_query(tpcd_db, sql, config=db2_faithful(False))
        assert enabled.rows == disabled.rows

    def test_q6_scalar_aggregate_needs_no_sort(self, tpcd_db):
        result = run_query(tpcd_db, tpcd_query("q6"), config=db2_faithful(True))
        assert len(result.rows) == 1
        assert result.plan.sort_count() == 0

    def test_q5_output_ordered_by_revenue(self, tpcd_db):
        result = run_query(tpcd_db, tpcd_query("q5"))
        revenues = [row[1] for row in result.rows]
        assert revenues == sorted(revenues, reverse=True)

    def test_unknown_query_name(self):
        from repro.errors import BenchmarkError

        with pytest.raises(BenchmarkError):
            tpcd_query("q99")
