"""Plan shapes for the partitioning subsystem.

The pinned acceptance plan: a range-partitioned table with a clustered
local index satisfies ORDER BY through a merge exchange with **zero**
sorts, while the no-partitioning build pays a full sort for the same
query — and both return byte-identical rows.
"""

import pytest

from repro.api import execute, plan_query, run_query
from repro.expr.nodes import ColumnRef
from repro.optimizer import OptimizerConfig
from repro.optimizer.plan import OpKind

PARALLEL_KINDS = (OpKind.PARTITION_SCAN, OpKind.MERGE_EXCHANGE)


def _no_partitioning():
    config = OptimizerConfig()
    config.enable_partitioning = False
    return config


class TestPinnedMergeExchangePlan:
    SQL = "select okey, odate from orders order by odate"

    def test_merge_exchange_avoids_the_sort(self, partitioned_db):
        plan = plan_query(partitioned_db, self.SQL, config=OptimizerConfig())
        merges = plan.find_all(OpKind.MERGE_EXCHANGE)
        assert merges, plan.explain()
        assert plan.sort_count() == 0
        assert plan.partial_sort_count() == 0
        # Each merged stream is a per-partition (local) index scan.
        scans = merges[0].children
        assert len(scans) == 4
        assert all(child.kind is OpKind.INDEX_SCAN for child in scans)
        assert sorted(child.args["partition"] for child in scans) == [
            0,
            1,
            2,
            3,
        ]

    def test_no_partitioning_build_pays_a_sort(self, partitioned_db):
        baseline = plan_query(
            partitioned_db, self.SQL, config=_no_partitioning()
        )
        assert baseline.sort_count() >= 1
        for kind in PARALLEL_KINDS:
            assert not baseline.find_all(kind)
        merged = run_query(partitioned_db, self.SQL)
        assert merged.plan.sort_count() == 0
        assert merged.rows == execute(partitioned_db, baseline).rows

    def test_partial_sort_composes_over_merge_exchange(self, partitioned_db):
        # PR 8's composition: the merge delivers the odate prefix, so a
        # secondary key costs a segmented partial sort, not a full sort.
        plan = plan_query(
            partitioned_db,
            "select okey, odate from orders order by odate, okey",
            config=OptimizerConfig(),
        )
        assert plan.find_all(OpKind.MERGE_EXCHANGE), plan.explain()
        assert plan.sort_count() == 0
        assert plan.partial_sort_count() == 1


class TestPartitionPruning:
    def test_equality_prunes_to_one_partition(self, partitioned_db):
        plan = plan_query(
            partitioned_db,
            "select okey from orders where odate = 300",
        )
        scans = plan.find_all(OpKind.PARTITION_SCAN)
        assert scans, plan.explain()
        assert scans[0].args["partitions"] == (1,)

    def test_range_predicate_prunes_to_intersecting_partitions(
        self, partitioned_db
    ):
        plan = plan_query(
            partitioned_db,
            "select okey from orders where odate >= 500 and odate < 700",
        )
        scans = plan.find_all(OpKind.PARTITION_SCAN)
        assert scans, plan.explain()
        assert scans[0].args["partitions"] == (2,)

    def test_pruned_scan_reads_less_than_the_unpruned_scan(
        self, partitioned_db
    ):
        sql = "select okey from orders where odate >= 500 and odate < 700"
        on = run_query(partitioned_db, sql, cold_cache=True)
        off = run_query(
            partitioned_db, sql, config=_no_partitioning(), cold_cache=True
        )
        assert on.plan.find_all(OpKind.PARTITION_SCAN), on.plan.explain()
        assert sorted(on.rows) == sorted(off.rows)
        assert on.simulated_io_ms < off.simulated_io_ms

    def test_range_band_prunes_the_merge_exchange_too(self, partitioned_db):
        # A band over two partitions keeps the merge exchange but only
        # over the surviving partitions' local-index scans.
        plan = plan_query(
            partitioned_db,
            "select okey, odate from orders "
            "where odate >= 250 and odate < 750 order by odate",
            config=OptimizerConfig(),
        )
        merges = plan.find_all(OpKind.MERGE_EXCHANGE)
        assert merges, plan.explain()
        assert plan.sort_count() == 0
        assert sorted(
            child.args["partition"] for child in merges[0].children
        ) == [1, 2]

    def test_prune_to_one_partition_drops_the_exchange(self):
        # An exchange needs >= 2 streams; a band inside one partition
        # must plan a plain local-index scan — ordered, no wrapper.
        # (Regression: this used to build a one-child merge exchange
        # that the executor rejects at build time.) Self-contained db:
        # large enough that the ordered index path beats scan + sort.
        from repro.catalog import Column, Index, TableSchema, range_spec
        from repro.sqltypes import INTEGER
        from repro.storage import Database

        db = Database()
        rows = sorted(
            ((i, (i * 7) % 400, i % 13) for i in range(5000)),
            key=lambda row: (row[1], row[0]),
        )
        db.create_table(
            TableSchema(
                "f",
                [
                    Column("k", INTEGER, nullable=False),
                    Column("d", INTEGER, nullable=False),
                    Column("v", INTEGER, nullable=False),
                ],
                primary_key=("k",),
                partitioning=range_spec(["d"], [100, 200, 300]),
            ),
            rows=rows,
        )
        db.create_index(Index.on("f_d", "f", ("d",), clustered=True))
        sql = "select k, d from f where d >= 100 and d < 200 order by d"
        plan = plan_query(db, sql, config=OptimizerConfig())
        assert not plan.find_all(OpKind.MERGE_EXCHANGE), plan.explain()
        assert plan.sort_count() == 0
        scans = plan.find_all(OpKind.INDEX_SCAN)
        assert scans and scans[0].args["partition"] == 1
        on = run_query(db, sql)
        off = run_query(db, sql, config=_no_partitioning())
        assert on.rows == off.rows

    def test_parameter_values_never_prune(self, partitioned_db):
        # Plans are cached and re-bound; a host variable's current value
        # must not bake a partition choice into the plan.
        plan = plan_query(
            partitioned_db,
            "select okey from orders where odate = :d",
        )
        assert not plan.find_all(OpKind.PARTITION_SCAN), plan.explain()


class TestPartitionWiseOperators:
    def test_non_colocated_group_by_stays_sequential(self, partitioned_db):
        # Groups straddle partitions: one group operator over the
        # whole table, whatever the partitioning.
        plan = plan_query(
            partitioned_db,
            "select qty, count(*) as n from lineitem group by qty",
            config=OptimizerConfig(),
        )
        groups = plan.find_all(OpKind.GROUP_HASH) + plan.find_all(
            OpKind.GROUP_SORTED
        )
        assert len(groups) == 1, plan.explain()


class TestBaselines:
    @pytest.mark.parametrize(
        "config",
        [
            OptimizerConfig.disabled(),
            OptimizerConfig.db2_faithful(),
            _no_partitioning(),
        ],
        ids=["disabled", "db2-faithful", "no-partitioning"],
    )
    def test_baseline_builds_emit_no_parallel_operators(
        self, partitioned_db, config
    ):
        for sql in (
            "select okey, odate from orders order by odate",
            "select okey, sum(qty) as q from lineitem group by okey",
            "select l.okey from lineitem l, orders2 o where l.okey = o.okey",
        ):
            plan = plan_query(partitioned_db, sql, config=config)
            for kind in PARALLEL_KINDS:
                assert not plan.find_all(kind), (sql, kind)

    def test_rows_agree_with_partitioning_on_and_off(self, partitioned_db):
        for sql in (
            "select okey, odate from orders order by odate, okey",
            "select okey, total from orders where odate >= 500 and odate < 700",
            "select o.okey, c.name from orders o, cust c "
            "where o.custkey = c.custkey and o.total < 2000",
            "select custkey, count(*) as n from orders "
            "group by custkey order by custkey",
            # Hash-co-partitioned join, grouping on the partition key
            # and a filtered scan of a hash-partitioned table.
            "select l.okey, l.qty, o.pri from lineitem l, orders2 o "
            "where l.okey = o.okey and o.pri = 3",
            "select okey, sum(qty) as q from lineitem group by okey",
            "select okey, qty from lineitem where qty < 40",
        ):
            on = run_query(partitioned_db, sql)
            off = run_query(partitioned_db, sql, config=_no_partitioning())
            if " order by" in sql:
                assert on.rows == off.rows, sql
            else:
                assert sorted(on.rows) == sorted(off.rows), sql
            # The single-stream space is a subset of the partitioned
            # search space, so the chosen plan can never cost more.
            assert on.plan.cost.total_ms <= off.plan.cost.total_ms, sql
