"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest

from repro import Column, Database, Index, TableSchema
from repro.catalog import hash_spec, range_spec
from repro.sqltypes import DATE, INTEGER, decimal_type, varchar


@pytest.fixture
def empty_db() -> Database:
    return Database()


@pytest.fixture(scope="session")
def simple_db() -> Database:
    """Two joinable tables, large enough that index orders pay off.

    Session-scoped and treated as read-only by tests.
    """
    rng = random.Random(42)
    db = Database()
    db.create_table(
        TableSchema(
            "a",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, rng.randint(0, 9)) for i in range(5000)],
    )
    db.create_table(
        TableSchema(
            "b",
            [Column("x", INTEGER, nullable=False), Column("z", INTEGER)],
        ),
        rows=[(rng.randint(0, 4999), rng.randint(0, 99)) for _ in range(8000)],
    )
    db.create_index(Index.on("a_x", "a", ["x"], unique=True, clustered=True))
    db.create_index(Index.on("b_x", "b", ["x"], clustered=True))
    return db


@pytest.fixture(scope="session")
def warehouse_db() -> Database:
    """A three-table star-ish schema used by plan-shape tests.

    Session-scoped and treated as read-only by tests.
    """
    rng = random.Random(7)
    db = Database()
    db.create_table(
        TableSchema(
            "dim",
            [
                Column("k", INTEGER, nullable=False),
                Column("attr", INTEGER),
                Column("grp", varchar(10)),
            ],
            primary_key=("k",),
        ),
        rows=[
            (i, rng.randint(0, 30), f"g{i % 5}") for i in range(1000)
        ],
    )
    db.create_table(
        TableSchema(
            "fact",
            [
                Column("k", INTEGER, nullable=False),
                Column("d", INTEGER, nullable=False),
                Column("v", INTEGER),
            ],
        ),
        rows=[
            (rng.randint(0, 999), rng.randint(0, 49), rng.randint(0, 1000))
            for _ in range(8000)
        ],
    )
    db.create_table(
        TableSchema(
            "detail",
            [
                Column("d", INTEGER, nullable=False),
                Column("w", INTEGER),
            ],
        ),
        rows=[
            (rng.randint(0, 49), rng.randint(0, 10)) for _ in range(2000)
        ],
    )
    db.create_index(Index.on("dim_k", "dim", ["k"], unique=True, clustered=True))
    db.create_index(Index.on("fact_k", "fact", ["k"], clustered=True))
    db.create_index(Index.on("detail_d", "detail", ["d"], clustered=True))
    return db


@pytest.fixture(scope="session")
def partitioned_db() -> Database:
    """Partitioned tables for merge-exchange and pruning tests.

    ``orders`` is range-partitioned on ``odate`` with a clustered
    per-partition (local) index on it — the shape that lets a merge
    exchange deliver ``ORDER BY odate`` with zero sorts. ``lineitem``
    and ``orders2`` are hash-partitioned on ``okey`` (joins and
    group-bys over them must return the single-stream rows); ``cust``
    stays unpartitioned.
    Session-scoped and treated as read-only by tests.
    """
    rng = random.Random(7)
    db = Database()
    db.create_table(
        TableSchema(
            "orders",
            [
                Column("okey", INTEGER, nullable=False),
                Column("custkey", INTEGER, nullable=False),
                Column("total", INTEGER, nullable=False),
                Column("odate", INTEGER, nullable=False),
            ],
            primary_key=("okey",),
            partitioning=range_spec(["odate"], [250, 500, 750]),
        ),
        rows=[
            (i, rng.randrange(100), rng.randrange(10_000), rng.randrange(1000))
            for i in range(2000)
        ],
    )
    db.create_index(
        Index.on("orders_odate", "orders", ("odate",), clustered=True)
    )
    db.create_table(
        TableSchema(
            "cust",
            [
                Column("custkey", INTEGER, nullable=False),
                Column("name", varchar(20), nullable=False),
                Column("nation", INTEGER, nullable=False),
            ],
            primary_key=("custkey",),
        ),
        rows=[(i, f"c{i}", rng.randrange(25)) for i in range(100)],
    )
    db.create_table(
        TableSchema(
            "lineitem",
            [
                Column("okey", INTEGER, nullable=False),
                Column("lnum", INTEGER, nullable=False),
                Column("qty", INTEGER, nullable=False),
            ],
            primary_key=("okey", "lnum"),
            partitioning=hash_spec(["okey"], 4),
        ),
        rows=[
            (o, line, rng.randrange(50))
            for o in range(2000)
            for line in range(rng.randrange(1, 4))
        ],
    )
    db.create_table(
        TableSchema(
            "orders2",
            [
                Column("okey", INTEGER, nullable=False),
                Column("pri", INTEGER, nullable=False),
            ],
            primary_key=("okey",),
            partitioning=hash_spec(["okey"], 4),
        ),
        rows=[(i, rng.randrange(5)) for i in range(2000)],
    )
    db.analyze_all()
    return db


@pytest.fixture(scope="session")
def tpcd_db():
    """A tiny TPC-D database shared across the session (SF 0.002)."""
    from repro.tpcd import build_tpcd_database

    return build_tpcd_database(scale_factor=0.002, buffer_pool_pages=2048)
