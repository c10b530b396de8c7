"""The order scan's optimistic context (§5.1), checked on real rows.

``verify.oracle.audit_optimistic_context`` evaluates a block's FROM +
WHERE with the reference evaluator and checks every FD, constant and
equivalence class of ``planner.optimistic`` on those rows. A key FD
whose tail reaches past its own table (``K -> *`` across a 1:n join)
fails it.
"""

from dataclasses import replace

import pytest

from repro.core.context import OrderContext
from repro.core.fd import fd, key_fd
from repro.expr import col
from repro.optimizer import Optimizer
from repro.tpcd import QUERY_3
from repro.verify.gen import QueryGenerator, generate_schema
from repro.verify.oracle import (
    audit_node,
    audit_optimistic_context,
    build_audit_database,
    walk,
)

from tests.optimizer.perf_statements import seed1_statements


def top_block(database, sql):
    """The planning state of ``sql``'s top block."""
    optimizer = Optimizer(database)
    optimizer.plan_sql(sql)
    return optimizer.last_planner


def violations_by_statement(database, statements):
    found = {}
    for name, sql in statements:
        violations = audit_optimistic_context(database, top_block(database, sql))
        if violations:
            found[name] = violations
    return found


def test_seed7_corpus_top_blocks_hold():
    schema = generate_schema(7)
    generator = QueryGenerator(schema, 7)
    statements = [(index, generator.generate().sql()) for index in range(50)]
    assert violations_by_statement(schema.build(), statements) == {}


@pytest.mark.parametrize("workload", ["adhoc_plan", "scan_agg", "service_mixed"])
def test_perf_seed1_statements_hold(tpcd_db, workload):
    statements = seed1_statements(tpcd_db, workload).items()
    assert violations_by_statement(tpcd_db, statements) == {}


def test_paper_query3_holds(tpcd_db):
    assert audit_optimistic_context(tpcd_db, top_block(tpcd_db, QUERY_3)) == []


OUTER_JOIN_WITH_PRESERVED_CONJUNCT = (
    "select d.grp, f.v from d left join f on d.grp = f.k and d.name = 'n1'"
)


def test_an_outer_join_on_fd_with_a_preserved_side_conjunct_holds():
    """``{d.grp} -> {f.k}`` from ``ON d.grp = f.k AND d.name = 'n1'`` is
    false: two d rows with one grp, one named n1 and one not, get f.k
    and NULL. The ON clause's preserved-side columns all head the FD."""
    database = build_audit_database()
    planner = top_block(database, OUTER_JOIN_WITH_PRESERVED_CONJUNCT)
    assert audit_optimistic_context(database, planner) == []
    assert fd([col("d", "grp"), col("d", "name")], [col("f", "k")]) in (
        planner.optimistic.fds
    )


def test_the_outer_join_stream_fd_holds_on_the_join_rows():
    """The same FD as the join node's stream property
    (``propagate_left_outer_join``), checked on the rows it produces."""
    database = build_audit_database()
    plan = Optimizer(database).plan_sql(OUTER_JOIN_WITH_PRESERVED_CONJUNCT)
    (join,) = [node for node in walk(plan.root) if node.args.get("left_outer")]
    assert fd([col("d", "grp"), col("d", "name")], [col("f", "k")]) in (
        join.properties.fds
    )
    assert audit_node(database, join) == []


def test_a_key_fd_over_the_whole_join_box_is_caught():
    """Negative control: ``{d.k} -> *`` is false over ``d ⋈ f``, which
    holds several ``seq`` rows per ``k``."""
    database = build_audit_database()
    planner = top_block(database, "select d.k, f.v from d, f where d.k = f.k")
    assert audit_optimistic_context(database, planner) == []
    honest = planner.optimistic
    lying = OrderContext(
        honest.equivalences,
        honest.fds.add(key_fd([col("d", "k")])),
        honest.constants,
    )
    violations = audit_optimistic_context(
        database, replace(planner, optimistic=lying)
    )
    assert "optimistic FD {d.k} -> * violated" in violations
