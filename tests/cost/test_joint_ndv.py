"""Joint NDV estimation: correlated column sets stop multiplying.

Partial sort's benefit scales with how many prefix groups the delivered
order carries; estimating group counts as the *product* of per-column
NDVs wildly overestimates on correlated prefixes (nation -> region).
``TableStats.joint_ndv`` counts distinct combinations in the row
sample instead, capped by the independence product and the row count.
"""

from repro.catalog import Column, TableSchema
from repro.catalog.stats import TableStats
from repro.cost.estimate import StatsView
from repro.expr.nodes import ColumnRef
from repro.sqltypes import INTEGER


def _stats(rows):
    return TableStats.collect(("x", "y", "z"), rows)


class TestTableStatsJointNdv:
    def test_correlated_columns_collapse_to_the_determining_column(self):
        # y is a function of x: the pair has exactly ndv(x) combinations,
        # while the independence product claims ndv(x) * ndv(y).
        rows = [(i % 50, (i % 50) // 10, i) for i in range(1000)]
        stats = _stats(rows)
        joint = stats.joint_ndv(["x", "y"])
        product = stats.column("x").ndv * stats.column("y").ndv
        assert joint is not None
        assert abs(joint - 50) <= 5
        assert joint < product / 2

    def test_independent_columns_stay_near_the_product(self):
        rows = [(i % 10, (i // 10) % 10, i) for i in range(1000)]
        stats = _stats(rows)
        joint = stats.joint_ndv(["x", "y"])
        assert joint is not None
        assert 80 <= joint <= 100  # true joint NDV is 100

    def test_estimate_is_capped_by_row_count(self):
        rows = [(i, i * 3, i) for i in range(40)]
        stats = _stats(rows)
        assert stats.joint_ndv(["x", "y"]) <= stats.row_count

    def test_unknown_column_or_missing_sample_returns_none(self):
        stats = _stats([(1, 2, 3)])
        assert stats.joint_ndv(["x", "nope"]) is None
        assert TableStats().joint_ndv(["x"]) is None


def _recount(stats, names):
    """``joint_ndv`` with the per-column-tuple memo emptied first."""
    stats._sample_distinct.clear()
    return stats.joint_ndv(names)


class TestSampleDistinctMemo:
    CASES = (
        [(i % 50, (i % 50) // 10, i) for i in range(1000)],
        [(i % 10, (i // 10) % 10, i) for i in range(1000)],
        [(i, i * 3, i) for i in range(40)],
        # Larger than the sample: the scaled-up estimate is memoized too.
        [(i % 300, i % 7, i) for i in range(3 * TableStats.SAMPLE_SIZE)],
    )

    def test_memoized_answers_equal_a_recount(self):
        for rows in self.CASES:
            stats = _stats(rows)
            for names in (["x", "y"], ["y", "x"], ["x"], ["x", "y", "z"]):
                first = stats.joint_ndv(names)
                assert tuple(names) in stats._sample_distinct
                assert stats.joint_ndv(names) == first
                assert _recount(stats, names) == first

    def test_caps_are_applied_after_the_memo(self):
        # The NDV product and the row count are read on every call, so
        # a statistic corrected in place is honoured at once.
        stats = _stats([(i % 50, i % 50, i) for i in range(1000)])
        assert stats.joint_ndv(["x", "y"]) == 50.0
        stats.columns["x"].ndv = 5
        stats.columns["y"].ndv = 4
        assert stats.joint_ndv(["x", "y"]) == 20.0

    def test_a_fresh_analyze_is_not_served_stale_values(self):
        from repro import Database

        db = Database()
        schema = TableSchema(
            "t",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
        )
        db.create_table(schema, rows=[(i % 4, i % 2) for i in range(100)])
        view = StatsView({"t": db.catalog.table("t")})
        columns = [ColumnRef("t", "x"), ColumnRef("t", "y")]
        assert view.joint_ndv(columns) == 4.0
        for i in range(100):
            db.store("t").insert((i % 20, i % 10))
        db.analyze_table("t")
        assert StatsView({"t": db.catalog.table("t")}).joint_ndv(columns) == 22.0

    def test_feedback_overrides_still_win(self):
        from repro import Database
        from repro.catalog.overrides import StatsCorrections

        db = Database()
        schema = TableSchema(
            "t",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
        )
        db.create_table(schema, rows=[(i % 4, i % 2) for i in range(100)])
        columns = [ColumnRef("t", "x"), ColumnRef("t", "y")]

        def joint():
            view = StatsView(
                {"t": db.catalog.table("t")},
                overrides=db.catalog.stats_overrides,
            )
            return view.joint_ndv(columns)

        assert joint() == 4.0  # and now memoized on the stats object
        corrections = StatsCorrections()
        corrections.add_joint_ndv("t", ["x", "y"], 17)
        db.catalog.apply_feedback(corrections)
        assert joint() == 17.0
        db.catalog.clear_feedback()
        assert joint() == 4.0


class TestStatsViewJointNdv:
    def test_single_table_answers_and_cross_table_declines(self):
        rows = [(i % 20, i % 20, i) for i in range(400)]
        schema = TableSchema(
            "t",
            [
                Column("x", INTEGER, nullable=False),
                Column("y", INTEGER, nullable=False),
                Column("z", INTEGER, nullable=False),
            ],
        )
        schema.stats = _stats(rows)
        view = StatsView({"t": schema, "u": schema})
        joint = view.joint_ndv([ColumnRef("t", "x"), ColumnRef("t", "y")])
        assert joint is not None and abs(joint - 20) <= 3
        # Columns from two qualifiers share no row sample.
        assert (
            view.joint_ndv([ColumnRef("t", "x"), ColumnRef("u", "y")])
            is None
        )


class TestPlannerUsesJointEstimates:
    def test_group_by_cardinality_uses_joint_ndv(self, partitioned_db):
        # okey determines custkey-per-order; grouping on both columns
        # of orders must estimate ~rows-of-orders groups, not the
        # product ndv(okey) * ndv(custkey) (which the row-count cap
        # would also catch) — exercised end-to-end through planning.
        from repro.api import run_query

        result = run_query(
            partitioned_db,
            "select okey, custkey, count(*) as n from orders "
            "group by okey, custkey",
        )
        root = result.plan.root
        assert root.properties.cardinality <= 2100  # ~|orders|, not 10x
