"""A malformed statement fails the same way through the plan cache.

``PlanCache.plan_for`` parses the auto-parameterized tokens, which keep
the submitted text's positions, so its ``ParseError`` (and so
``QueryService``'s and ``run_query(cache=...)``'s) must carry the
message, line and column that planning the text directly gives.
"""

import datetime
from decimal import Decimal

import pytest

from repro import Column, Database, TableSchema
from repro.api import plan_query, run_query
from repro.errors import ParseError
from repro.service import PlanCache, QueryService
from repro.sqltypes import DATE, INTEGER, decimal_type

MALFORMED = {
    "multi-line": (
        "select o_orderkey\n  from orders\n  where o_totalprice > 5 garbage"
    ),
    "doubled spaces": (
        "select  o_orderkey  from  orders  where  o_totalprice  >  5  and"
    ),
    "trailing garbage": (
        "select o_orderkey from orders where o_orderkey = 1 order by 1 )"
    ),
    "bad date": (
        "select o_orderkey from orders\n"
        "where o_orderdate >= date('1995-13-01')"
    ),
    "unexpected character": (
        "select o_orderkey from orders where o_totalprice > 5 # 3"
    ),
    "non-decimal digit": (
        "select o_orderkey\nfrom orders\nwhere o_orderkey = 1²"
    ),
    "string then end of input": (
        "select o_orderkey\r\nfrom orders\r\n"
        "where o_comment = 'x\ny' and o_totalprice >"
    ),
    "unterminated string": (
        "select o_orderkey from orders where o_comment = 'it''s"
    ),
    # The offending token is a literal the cache hoists into a marker.
    "number after a literal": (
        "select o_orderkey from orders where o_orderkey = 1 2"
    ),
    "string after a literal": (
        "select o_orderkey from orders where o_comment = 'a' 'b'"
    ),
    "date after a literal": (
        "select o_orderkey from orders\n"
        "where o_orderkey = 1 DATE('1995-01-01')"
    ),
    "literal for an alias": (
        "select o_orderkey 7 from orders"
    ),
}


@pytest.fixture(scope="module")
def db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "orders",
            [
                Column("o_orderkey", INTEGER, nullable=False),
                Column("o_totalprice", decimal_type()),
                Column("o_orderdate", DATE),
                Column("o_comment", INTEGER),
            ],
            primary_key=("o_orderkey",),
        ),
        rows=[
            (k, Decimal(k), datetime.date(1995, 1, 1 + k), k)
            for k in range(20)
        ],
    )
    return db


def _error(call):
    with pytest.raises(ParseError) as info:
        call()
    error = info.value
    return error.args[0], error.line, error.column


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_cached_paths_raise_the_direct_parse_error(db, case):
    sql = MALFORMED[case]
    expected = _error(lambda: plan_query(db, sql))
    assert _error(lambda: PlanCache().plan_for(db, sql)) == expected
    assert _error(lambda: run_query(db, sql, cache=PlanCache())) == expected
    with QueryService(db, workers=1) as service:
        assert _error(lambda: service.query(sql)) == expected


def test_positions_point_into_the_submitted_text(db):
    sql = MALFORMED["multi-line"]
    assert _error(lambda: PlanCache().plan_for(db, sql)) == (
        "unexpected trailing input 'garbage'", 3, 26
    )
    assert _error(lambda: PlanCache().plan_for(db, MALFORMED["bad date"])) == (
        "bad date literal '1995-13-01'", 2, 27
    )


def test_an_error_at_a_hoisted_literal_quotes_the_literal(db):
    cases = {
        "number after a literal": ("unexpected trailing input '2'", 1, 52),
        "string after a literal": ("unexpected trailing input 'b'", 1, 53),
        "date after a literal": ("unexpected trailing input 'DATE'", 2, 22),
        "literal for an alias": ("expected FROM, found '7'", 1, 19),
    }
    for case, expected in cases.items():
        assert _error(lambda: PlanCache().plan_for(db, MALFORMED[case])) == (
            expected
        ), case
