"""Descending and mixed-direction index orders."""

import random

import pytest

from repro import (
    Column,
    Database,
    Index,
    IndexColumn,
    OptimizerConfig,
    TableSchema,
    run_query,
)
from repro.core.ordering import SortDirection
from repro.optimizer.plan import OpKind
from repro.sqltypes import INTEGER


@pytest.fixture(scope="module")
def db():
    rng = random.Random(13)
    database = Database()
    database.create_table(
        TableSchema(
            "t",
            [
                Column("k", INTEGER, nullable=False),
                Column("a", INTEGER, nullable=False),
                Column("b", INTEGER),
            ],
            primary_key=("k",),
        ),
        rows=[
            (i, rng.randint(0, 99), rng.randint(0, 99)) for i in range(5000)
        ],
    )
    database.create_index(Index.on("t_k", "t", ["k"], unique=True, clustered=True))
    # A declared-descending index on a, then ascending b.
    database.create_index(
        Index(
            "t_a_desc_b",
            "t",
            [IndexColumn("a", SortDirection.DESC), IndexColumn("b")],
        )
    )
    return database


class TestDescendingIndexes:
    def test_declared_desc_order_spec(self, db):
        index = db.catalog.index("t_a_desc_b")
        spec = index.order_spec("t")
        assert spec[0].direction is SortDirection.DESC
        assert spec[1].direction is SortDirection.ASC

    def test_index_scan_yields_declared_order(self, db):
        result = run_query(
            db, "select a, b from t where a > 90 order by a desc, b"
        )
        keys = [(-row[0], row[1]) for row in result.rows]
        assert keys == sorted(keys)

    def test_backward_scan_of_key_index(self, db):
        """ORDER BY k DESC rides the ascending key index backwards."""
        result = run_query(db, "select k from t order by k desc")
        assert result.plan.sort_count() == 0
        scans = result.plan.find_all(OpKind.INDEX_SCAN)
        assert any(scan.args.get("descending") for scan in scans)
        values = [row[0] for row in result.rows]
        assert values == sorted(values, reverse=True)

    def test_backward_scan_reverses_whole_spec(self, db):
        """ORDER BY a, b desc is the reversal of the (a desc, b) index."""
        result = run_query(
            db,
            "select a, b from t order by a, b desc",
            config=OptimizerConfig(enable_hash=False),
        )
        keys = [(row[0], -(row[1] if row[1] is not None else -1)) for row in result.rows]
        assert keys == sorted(keys)

    def test_mixed_direction_results_correct(self, db):
        result = run_query(db, "select a, b, k from t order by a desc, b, k")
        triples = [(-row[0], row[1], row[2]) for row in result.rows]
        assert triples == sorted(triples)
        assert len(result.rows) == 5000
