"""End-to-end correctness: optimizer+executor vs the naive reference.

Every query runs four ways — order optimization on/off, hash operators
on/off — and each result must match the brute-force reference evaluator
(modulo row order, which is then checked separately against ORDER BY).
"""

import random

import pytest

from repro import (
    Column,
    Database,
    Index,
    OptimizerConfig,
    TableSchema,
    run_query,
)
from repro.core.ordering import SortDirection
from repro.sqltypes import DATE, INTEGER, decimal_type, varchar
from repro.sqltypes.values import sort_key
from tests.reference import reference_query


@pytest.fixture(scope="module")
def db():
    """Small enough for the Cartesian reference, rich enough to exercise
    keys, indexes, NULLs, dates and decimals."""
    rng = random.Random(99)
    database = Database()
    database.create_table(
        TableSchema(
            "cust",
            [
                Column("ck", INTEGER, nullable=False),
                Column("seg", varchar(10)),
                Column("bal", decimal_type(10, 2)),
            ],
            primary_key=("ck",),
        ),
        rows=[
            (i, rng.choice(["gold", "silver", None]), rng.randint(0, 1000))
            for i in range(25)
        ],
    )
    database.create_table(
        TableSchema(
            "ord",
            [
                Column("ok", INTEGER, nullable=False),
                Column("ck", INTEGER, nullable=False),
                Column("day", DATE),
                Column("pri", INTEGER),
            ],
            primary_key=("ok",),
        ),
        rows=[
            (
                i,
                rng.randint(0, 24),
                f"1995-{rng.randint(1, 12):02d}-{rng.randint(1, 28):02d}",
                rng.randint(0, 3),
            )
            for i in range(60)
        ],
    )
    database.create_table(
        TableSchema(
            "item",
            [
                Column("ok", INTEGER, nullable=False),
                Column("ln", INTEGER, nullable=False),
                Column("qty", INTEGER),
                Column("price", decimal_type(10, 2)),
            ],
            primary_key=("ok", "ln"),
        ),
        rows=[
            (ok, line, rng.randint(1, 9), rng.randint(1, 500))
            for ok in range(60)
            for line in range(rng.randint(1, 3))
        ],
    )
    database.create_index(Index.on("pk_cust", "cust", ["ck"], unique=True, clustered=True))
    database.create_index(Index.on("pk_ord", "ord", ["ok"], unique=True, clustered=True))
    database.create_index(Index.on("ord_ck", "ord", ["ck"]))
    database.create_index(Index.on("item_ok", "item", ["ok"], clustered=True))
    return database


CONFIGS = {
    "full": OptimizerConfig(),
    "disabled": OptimizerConfig.disabled(),
    "no-hash": OptimizerConfig(enable_hash=False),
    "no-sortahead": OptimizerConfig(enable_sort_ahead=False),
}

QUERIES = [
    "select ck, seg from cust order by ck",
    "select ck, seg, bal from cust where seg = 'gold' order by bal desc, ck",
    "select ck, seg from cust where bal > 500 order by seg, ck",
    "select distinct seg from cust",
    "select distinct pri, ck from ord order by pri",
    "select c.ck, o.ok from cust c, ord o where c.ck = o.ck order by c.ck",
    "select c.ck, o.ok, o.pri from cust c, ord o "
    "where c.ck = o.ck and o.pri = 2 order by o.ok desc",
    "select seg, count(*) as n, sum(bal) as total from cust "
    "group by seg order by seg",
    "select o.ck, count(*) as n from ord o group by o.ck order by n desc, o.ck",
    "select c.seg, sum(i.qty * i.price) as rev from cust c, ord o, item i "
    "where c.ck = o.ck and o.ok = i.ok group by c.seg order by rev desc",
    "select o.ok, o.day, sum(i.price) as rev from ord o, item i "
    "where o.ok = i.ok and o.day < date('1995-06-15') "
    "group by o.ok, o.day order by rev desc, o.day",
    "select pri, count(distinct ck) as customers from ord "
    "group by pri order by pri desc",
    "select ck, bal from cust where bal between 100 and 900 order by 2",
    "select c.ck, c.bal from cust c where c.seg is null order by c.ck",
    "select o.pri, avg(i.qty) as avg_qty from ord o, item i "
    "where o.ok = i.ok group by o.pri having count(*) > 5 order by o.pri",
    "select v.s, v.n from "
    "(select seg as s, count(*) as n from cust group by seg) v order by v.n",
    "select max(bal) as top, min(bal) as bottom from cust",
    "select c.ck, o.ok from cust c, ord o "
    "where c.ck = o.ck and c.ck = 7 order by o.ok",
]


def normalized(rows):
    return sorted(
        rows, key=lambda row: tuple(sort_key(value) for value in row)
    )


def check_order_by(rows, plan, sql, block_order):
    if block_order.is_empty():
        return
    # Recompute sort keys over output positions.
    positions = {}
    for index, name in enumerate(plan.output_names):
        positions[name] = index
    # Map order columns to output positions via the plan's final schema.
    schema = plan.root.properties.schema
    keys = []
    for key in block_order:
        if key.column in schema:
            keys.append(
                (schema.position(key.column), key.direction is SortDirection.DESC)
            )
    extracted = [
        tuple(sort_key(row[position], desc_) for position, desc_ in keys)
        for row in rows
    ]
    assert extracted == sorted(extracted), f"output not ordered for {sql}"


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@pytest.mark.parametrize("sql", QUERIES)
def test_matches_reference(db, sql, config_name):
    expected = reference_query(db, sql)
    result = run_query(db, sql, config=CONFIGS[config_name])
    assert normalized(result.rows) == normalized(expected), (
        f"wrong rows for {sql!r} under {config_name}\n"
        f"{result.plan.explain()}"
    )


@pytest.mark.parametrize("sql", QUERIES)
def test_output_respects_order_by(db, sql):
    from repro.parser import parse_query
    from repro.qgm import normalize as qgm_normalize, rewrite

    block = qgm_normalize(rewrite(parse_query(sql, db.catalog)))
    result = run_query(db, sql)
    check_order_by(result.rows, result.plan, sql, block.order_by)


def test_plans_agree_across_configs(db):
    """All configs compute identical result sets for every query."""
    for sql in QUERIES:
        results = [
            normalized(run_query(db, sql, config=config).rows)
            for config in CONFIGS.values()
        ]
        for other in results[1:]:
            assert other == results[0], sql
