"""q3_customer: a constant customer key leaves the order scan its orders.

Under ``c_custkey = k`` the key FD ``{c_custkey} -> customer.*`` binds
only customer's columns, so the GROUP BY's order ``(l_orderkey)``
survives the order scan as an interesting order. The plan probes
``idx_o_custkey`` for the customer's few orders, sorts them on
``o_orderkey`` ahead of the join, and probes ``idx_l_orderkey`` in that
order instead of scanning all of ``pk_orders``. Built at the size
``service_mixed`` runs it (SF 0.005, 256 pool pages).
"""

import re

import pytest

from repro.api import execute, plan_query
from repro.expr import col
from repro.optimizer.plan import OpKind
from repro.tpcd import build_tpcd_database
from repro.verify.oracle import audit_plan, normalized
from repro.verify.reference import reference_query

from tests.optimizer.perf_statements import seed1_statements


@pytest.fixture(scope="module")
def database():
    return build_tpcd_database(scale_factor=0.005, buffer_pool_pages=256)


@pytest.fixture(scope="module")
def q3_customer(database):
    """The seed-1 text, bound to customer 9, who has two result rows."""
    sql = seed1_statements(database, "service_mixed")["q3_customer"]
    sql = re.sub(r"c_custkey = \d+", "c_custkey = 9", sql)
    return sql, plan_query(database, sql)


def test_probes_the_customers_orders_and_sorts_them_ahead(q3_customer):
    _sql, plan = q3_customer
    probes = {node.args["index"] for node in plan.find_all(OpKind.NLJ_INDEX)}
    assert probes == {"idx_o_custkey", "idx_l_orderkey"}
    assert not plan.find_all(OpKind.INDEX_SCAN)
    ahead = [
        node for node in plan.find_all(OpKind.SORT)
        if node.args["reason"] == "sort-ahead"
    ]
    assert [node.args["order"].columns for node in ahead] == [
        (col("orders", "o_orderkey"),)
    ]


def test_the_plan_audits_clean(database, q3_customer):
    _sql, plan = q3_customer
    assert audit_plan(database, plan) == []


@pytest.mark.parametrize("mode", ["vector", "interpreted"])
def test_rows_equal_the_reference(database, q3_customer, mode):
    sql, plan = q3_customer
    rows = execute(database, plan, mode=mode).rows
    expected = reference_query(database, sql)
    assert rows and normalized(rows) == normalized(expected)
