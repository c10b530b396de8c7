"""The computed-column FD: ``c = f(x1 .. xk)`` yields ``{x1 .. xk} -> {c}``.

Expressions are deterministic, so Reduce Order (§4.1) may drop an ORDER
BY or DISTINCT key on a computed item once its inputs precede it. The
FD is harvested into the order scan's optimistic context and onto the
final projection's stream properties (and from there, renamed, onto a
derived table's outputs). Each case checks the plan shape, the rows
against the order-optimization-disabled build, and the claimed facts
on real rows.
"""

import pytest

from repro import Column, Database, Index, OptimizerConfig, TableSchema
from repro.api import run_query
from repro.core.fd import fd
from repro.core.ordering import OrderSpec, desc
from repro.expr import col, lit
from repro.expr.nodes import Aggregate, AggregateKind, Arithmetic, ArithmeticOp
from repro.optimizer import Optimizer
from repro.optimizer.plan import OpKind
from repro.properties.propagate import computed_column_fds
from repro.sqltypes import INTEGER
from repro.verify.gen import QueryGenerator, generate_schema
from repro.verify.oracle import (
    _order_violation,
    audit_optimistic_context,
    audit_plan,
    normalized,
    output_order_positions,
    walk,
)

SORTS = (OpKind.SORT, OpKind.TOPN, OpKind.PARTIAL_SORT)


@pytest.fixture(scope="module")
def db():
    database = Database()
    database.create_table(
        TableSchema(
            "r",
            [
                Column("id", INTEGER, nullable=False),
                Column("val", INTEGER),
                Column("a", INTEGER),
                Column("b", INTEGER),
            ],
            primary_key=("id",),
        ),
        rows=[(i, (i * 3) % 97, i % 7, (i * 5) % 11) for i in range(2000)],
    )
    database.create_index(Index.on("r_val", "r", ["val"], clustered=True))
    database.analyze_all()
    return database


def sort_orders(plan):
    return [node.args["order"] for node in walk(plan.root) if node.kind in SORTS]


def checked_plan(database, sql):
    """The default plan of ``sql``, after checking its rows, its output
    order, every node's claimed properties and the optimistic context."""
    optimizer = Optimizer(database)
    plan = optimizer.plan_sql(sql)
    assert audit_plan(database, plan) == []
    assert audit_optimistic_context(database, optimizer.last_planner) == []
    rows = run_query(database, sql).rows
    baseline = run_query(database, sql, config=OptimizerConfig.disabled()).rows
    assert normalized(rows) == normalized(baseline)
    positions = output_order_positions(database, sql)
    assert _order_violation(rows, positions) is None
    return plan


def test_harvest_skips_bare_columns_and_aggregates():
    val, a, b = col("r", "val"), col("r", "a"), col("r", "b")
    s, five = col("", "s"), col("", "five")
    total = Aggregate(AggregateKind.SUM, val)
    fds = computed_column_fds(
        [
            (val, val),
            (Arithmetic(ArithmeticOp.ADD, a, b), s),
            (total, col("", "n")),
            (Arithmetic(ArithmeticOp.ADD, total, lit(1)), col("", "n1")),
            (lit(5), five),
        ]
    )
    assert set(fds) == {fd([a, b], [s]), fd([], [five])}


@pytest.mark.parametrize(
    "sql, sorted_on",
    [
        # {a, b} -> {s}: the sum after its inputs is not sorted on.
        (
            "select a, b, a + b as s from r order by a, b, s",
            [[col("r", "a"), col("r", "b")]],
        ),
        # {val} -> {v3}: the index order on val serves the whole spec.
        ("select val, val + 3 as v3 from r order by val, v3", []),
        # Before its inputs the computed key is the major key, sorted.
        (
            "select a, b, a + b as s from r order by s, a, b",
            [[col("", "s"), col("r", "a"), col("r", "b")]],
        ),
        # The view's final projection claims {val} -> {v1}; renamed onto
        # the outer block it drops t.v1 from the sort.
        (
            "select t.val, t.v1 from (select val, val + 1 as v1 from r "
            "where a = 1 fetch first 5 rows only) t order by t.val, t.v1",
            [[col("t", "val")]],
        ),
    ],
)
def test_order_by_drops_a_computed_key_after_its_inputs(db, sql, sorted_on):
    plan = checked_plan(db, sql)
    assert sort_orders(plan) == [OrderSpec.of(*columns) for columns in sorted_on]


def test_distinct_reduces_to_the_input_column():
    """Seed-7 corpus statement 11: DISTINCT over ``s.amt`` and
    ``s.amt + 5`` sorts on ``s.amt`` alone, and serves ORDER BY too."""
    schema = generate_schema(7)
    generator = QueryGenerator(schema, 7)
    for _ in range(12):
        sql = generator.generate().sql()
    assert sql == (
        "select distinct s.amt, s.amt + 5 as aplus from r left join s "
        "on r.id = s.rid where r.grp = 3 and r.grp is not null "
        "order by s.amt desc"
    ), "seed-7 stream shifted; update the pinned index/SQL deliberately"
    plan = checked_plan(schema.build(), sql)
    amt, aplus = col("s", "amt"), col("", "aplus")
    assert sort_orders(plan) == [OrderSpec([desc(amt)])]
    (projection,) = [
        node for node in walk(plan.root) if node.args.get("final_projection")
    ]
    assert fd([amt], [aplus]) in projection.properties.fds

