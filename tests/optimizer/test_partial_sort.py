"""Prefix-aware partial sort in plans: enforcement and segment sharing.

The optimizer must (a) turn a sort whose target's proper prefix is
already delivered into a PARTIAL_SORT, (b) keep the naive builds
honest (no partial sorts under ``disabled()`` or the feature toggle),
and (c) steer merge-join key sequences toward reusing delivered
prefixes (shared sort segments).
"""

import pytest

from repro import Column, Database, Index, OptimizerConfig, TableSchema
from repro import plan_query
from repro.api import run_query
from repro.optimizer.plan import OpKind
from repro.sqltypes import INTEGER


def merge_only_config(**overrides):
    """Merge joins only: forces order enforcement to carry the plan."""
    config = OptimizerConfig(
        enable_hash=False,
        enable_index_nlj=False,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestPartialSortEnforcement:
    # b has a clustered index on x but no key: ORDER BY x, z keeps both
    # columns after reduction, the scan delivers the x prefix, and the
    # enforcement sort only needs to order z within x-groups.
    SQL = "select x, z from b order by x, z"

    def test_prefix_sort_becomes_partial(self, simple_db):
        plan = plan_query(simple_db, self.SQL)
        assert plan.partial_sort_count() == 1
        assert plan.sort_count() == 0
        node = plan.find_all(OpKind.PARTIAL_SORT)[0]
        assert node.args["prefix"] == 1
        assert len(node.args["order"]) == 2
        assert "partial sort" in plan.explain()

    def test_feature_toggle_restores_full_sort(self, simple_db):
        plan = plan_query(
            simple_db,
            self.SQL,
            config=OptimizerConfig(enable_partial_sort=False),
        )
        assert plan.partial_sort_count() == 0

    def test_disabled_build_never_partial_sorts(self, simple_db):
        plan = plan_query(
            simple_db, self.SQL, config=OptimizerConfig.disabled()
        )
        assert plan.partial_sort_count() == 0

    def test_partial_sort_cheaper_than_full_sort(self, simple_db):
        partial = plan_query(simple_db, self.SQL)
        full = plan_query(
            simple_db,
            self.SQL,
            config=OptimizerConfig(enable_partial_sort=False),
        )
        assert partial.cost.total_ms < full.cost.total_ms

    def test_rows_identical_with_and_without(self, simple_db):
        with_partial = run_query(simple_db, self.SQL)
        without = run_query(
            simple_db,
            self.SQL,
            config=OptimizerConfig(enable_partial_sort=False),
        )
        assert with_partial.rows == without.rows

    def test_limit_rides_the_partial_sort(self, simple_db):
        plan = plan_query(
            simple_db, self.SQL + " fetch first 10 rows only"
        )
        nodes = plan.find_all(OpKind.PARTIAL_SORT)
        assert nodes and nodes[0].args.get("limit") == 10
        assert not plan.find_all(OpKind.TOPN)
        limited = run_query(simple_db, self.SQL + " fetch first 10 rows only")
        full = run_query(
            simple_db,
            self.SQL + " fetch first 10 rows only",
            config=OptimizerConfig(enable_partial_sort=False),
        )
        assert limited.rows == full.rows


@pytest.fixture(scope="module")
def segment_db() -> Database:
    """Two merge joins sharing the leading column ``x``.

    ``r`` joins ``s`` on (x, y) and ``t2`` on (x, w): a plan that sorts
    the r-s result on (w, x) pays a full sort, while the segment-aligned
    (x, w) sequence reuses the (x, y...) order the first join delivered.
    """
    import random

    rng = random.Random(11)
    db = Database()
    db.create_table(
        TableSchema(
            "r",
            [
                Column("id", INTEGER, nullable=False),
                Column("x", INTEGER, nullable=False),
                Column("y", INTEGER, nullable=False),
                Column("w", INTEGER, nullable=False),
            ],
            primary_key=("id",),
        ),
        rows=[
            (i, rng.randint(0, 40), rng.randint(0, 10), rng.randint(0, 10))
            for i in range(2000)
        ],
    )
    db.create_table(
        TableSchema(
            "s",
            [
                Column("x", INTEGER, nullable=False),
                Column("y", INTEGER, nullable=False),
            ],
        ),
        rows=[
            (rng.randint(0, 40), rng.randint(0, 10)) for _ in range(500)
        ],
    )
    db.create_table(
        TableSchema(
            "t2",
            [
                Column("x", INTEGER, nullable=False),
                Column("w", INTEGER, nullable=False),
            ],
        ),
        rows=[
            (rng.randint(0, 40), rng.randint(0, 10)) for _ in range(500)
        ],
    )
    return db


class TestSharedSortSegments:
    # The t2 join's conjuncts are written w-first, so the unaligned key
    # sequence is (w, x); only segment alignment recovers the shared x
    # prefix.
    SQL = (
        "select r.id from r, s, t2 "
        "where r.x = s.x and r.y = s.y "
        "and r.w = t2.w and r.x = t2.x "
        "order by r.id"
    )

    def test_alignment_strictly_reduces_full_sorts(self, segment_db):
        aligned = plan_query(
            segment_db, self.SQL, config=merge_only_config()
        )
        unaligned = plan_query(
            segment_db,
            self.SQL,
            config=merge_only_config(enable_partial_sort=False),
        )
        assert aligned.sort_count() < unaligned.sort_count()
        assert aligned.partial_sort_count() >= 1

    def test_rows_identical_across_alignment(self, segment_db):
        aligned = run_query(segment_db, self.SQL, config=merge_only_config())
        unaligned = run_query(
            segment_db,
            self.SQL,
            config=merge_only_config(enable_partial_sort=False),
        )
        assert aligned.rows == unaligned.rows
