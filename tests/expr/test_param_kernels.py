"""Parameterized execution ≡ literal execution, on every engine.

The plan cache replaces literals by host variables, so cached traffic
only runs at literal speed if ``col <op> :v`` takes the same block
kernels as ``col <op> constant``. That rests on one invariant: within
an execution a host variable *is* a constant — ``api.execute`` checks
every name bound before the first row, the vector leaves resolve the
value once per block, and nothing about rows, three-valued logic or
errors may differ from the statement with the value written inline.
"""

from __future__ import annotations

import datetime
import sys
import threading

import pytest

from repro import Column, Database, TableSchema
from repro.api import execute, plan_query, run_query
from repro.errors import ExpressionError, TypeSystemError
from repro.expr import (
    BooleanExpr,
    BooleanOp,
    Comparison,
    ComparisonOp,
    InList,
    IsNull,
    Not,
    RowSchema,
    col,
    lit,
)
from repro.expr.bindings import active_value, parameter_scope, require_bound
from repro.expr.nodes import Arithmetic, ArithmeticOp, Parameter
from repro.expr.vector import (
    RowBlock,
    VectorFilter,
    _AndTerm,
    _CompareParamLeaf,
    _OrTerm,
    clear_vector_cache,
    compile_vector_filter,
    reset_vector_stats,
    vector_stats,
)
from repro.service import parameterize
from repro.sqltypes import INTEGER, varchar
from repro.verify.gen import QueryGenerator, generate_schema
from repro.verify.oracle import normalized
from tests.expr.term_spy import spy_on

MODES = ("vector", "interpreted")

Q6 = """select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= date('1994-01-01') and l_shipdate < date('1995-01-01')
  and l_discount between 0.05 and 0.07 and l_quantity < 24"""

DISJUNCTION = """select count(*) as n, sum(l_quantity) as qty
from lineitem
where (l_shipmode = 'MAIL' and l_quantity < 10)
   or (l_shipinstruct = 'COLLECT COD' and l_discount > 0.07)
   or l_receiptdate < date('1992-06-01')"""

IN_LISTS = """select l_shipmode, count(*) as n, avg(l_extendedprice) as avg_price
from lineitem
where l_shipmode in ('AIR', 'RAIL', 'MAIL')
  and l_shipinstruct in ('DELIVER IN PERSON', 'COLLECT COD')
  and l_quantity >= 20
group by l_shipmode
order by l_shipmode"""


@pytest.fixture(autouse=True)
def _fresh_kernels():
    clear_vector_cache()
    yield
    clear_vector_cache()


def parameterized(db, sql):
    """The statement as the plan cache sees it: planned once from the
    parameterized text, to be executed with the extracted bindings."""
    query = parameterize(sql)
    assert query.bindings, "the statement must carry literals to hoist"
    return plan_query(db, query.text), query.bindings


@pytest.fixture(scope="module")
def nullable_db() -> Database:
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("k", INTEGER, nullable=False),
                Column("a", INTEGER),
                Column("b", INTEGER),
                Column("s", varchar(8)),
            ],
            primary_key=("k",),
        ),
        rows=[
            (
                k,
                None if k % 3 == 0 else k % 11,
                None if k % 4 == 0 else k % 5,
                None if k % 5 == 0 else f"s{k % 3}",
            )
            for k in range(200)
        ],
    )
    db.create_table(
        TableSchema(
            "empty",
            [Column("k", INTEGER, nullable=False), Column("a", INTEGER)],
            primary_key=("k",),
        )
    )
    return db


class TestRowsMatchLiteral:
    @pytest.mark.parametrize(
        "sql", [Q6, DISJUNCTION, IN_LISTS], ids=["q6", "disjunction", "in_lists"]
    )
    def test_scan_statements(self, tpcd_db, sql):
        plan, bindings = parameterized(tpcd_db, sql)
        for mode in MODES:
            literal = run_query(tpcd_db, sql, mode=mode)
            assert literal.rows, "vacuous: the statement selects nothing"
            reset_vector_stats()
            bound = execute(tpcd_db, plan, parameters=bindings, mode=mode)
            assert bound.exec_mode == mode
            assert bound.rows == literal.rows
            # No AND/OR of column-vs-parameter comparisons is handed to
            # the row closure.
            assert vector_stats().get("vector.fallback_terms", 0) == 0

    def test_seed7_corpus(self):
        schema = generate_schema(7)
        generator = QueryGenerator(schema, 7)
        db = schema.build()
        hoisted = 0
        for _ in range(50):
            sql = generator.generate().sql()
            query = parameterize(sql)
            hoisted += bool(query.bindings)
            plan = plan_query(db, query.text)
            for mode in MODES:
                literal = run_query(db, sql, mode=mode)
                bound = execute(db, plan, parameters=query.bindings, mode=mode)
                assert normalized(bound.rows) == normalized(literal.rows), sql
        assert hoisted > 25

    def test_rebinding_reuses_the_kernels(self, tpcd_db):
        plan, bindings = parameterized(tpcd_db, Q6)
        execute(tpcd_db, plan, parameters=bindings, mode="vector")
        seen = []
        for year in (1995, 1996):
            dates = iter(
                (datetime.date(year, 1, 1), datetime.date(year + 1, 1, 1))
            )
            rebound = {
                name: next(dates) if isinstance(value, datetime.date) else value
                for name, value in bindings.items()
            }
            reset_vector_stats()
            seen.append(
                execute(tpcd_db, plan, parameters=rebound, mode="vector").rows
            )
            stats = vector_stats()
            assert stats["vector.filter_calls"] > 0
            assert stats["vector.filter_memo_hits"] == stats["vector.filter_calls"]
            literal = Q6.replace("1995", str(year + 1)).replace("1994", str(year))
            assert seen[-1] == run_query(tpcd_db, literal, mode="vector").rows
        assert seen[0] != seen[1]


X, Y = col("t", "x"), col("t", "y")
SCHEMA = RowSchema([X, Y])
ROWS = [(i % 7, i % 5) for i in range(70)] + [(None, 1), (2, None)]


class TestParameterTerms:
    def test_conjunction_of_parameters_stays_on_block_kernels(self):
        wide = Comparison(ComparisonOp.GE, X, Parameter("lo"))
        picky = Comparison(ComparisonOp.EQ, Parameter("y"), Y)
        expression = BooleanExpr(BooleanOp.AND, (wide, picky))
        kernel = VectorFilter(
            expression, SCHEMA, selectivity={wide: 0.9, picky: 0.1}.get
        )
        root = kernel.root
        assert isinstance(root, _AndTerm) and root.fast and root.no_raise
        assert all(isinstance(term, _CompareParamLeaf) for term in root.terms)
        assert [term.expression for term in root.terms] == [picky, wide]
        reset_vector_stats()
        with parameter_scope({"lo": 1, "y": 3}):
            selection = kernel(RowBlock(list(ROWS)))
        assert selection == [
            i for i, (x, y) in enumerate(ROWS)
            if x is not None and x >= 1 and y == 3
        ]
        assert vector_stats().get("vector.fallback_terms", 0) == 0

    def test_disjunction_of_parameters_reorders_and_bypasses(self):
        rare = Comparison(ComparisonOp.EQ, X, Parameter("x"))
        common = Comparison(ComparisonOp.LT, Y, Parameter("y"))
        expression = BooleanExpr(BooleanOp.OR, (rare, common))
        kernel = VectorFilter(
            expression, SCHEMA, selectivity={rare: 0.1, common: 0.8}.get
        )
        assert isinstance(kernel.root, _OrTerm) and kernel.root.no_raise
        assert [term.expression for term in kernel.root.terms] == [
            common,
            rare,
        ]
        first, second = spy_on(kernel)
        reset_vector_stats()
        with parameter_scope({"x": 6, "y": 4}):
            selection = kernel(RowBlock(list(ROWS)))
        assert selection == [
            i for i, (x, y) in enumerate(ROWS)
            if x == 6 or (y is not None and y < 4)
        ]
        assert first.rows == len(ROWS)
        assert second.rows < first.rows  # accepted rows bypass the rest
        assert vector_stats().get("vector.fallback_terms", 0) == 0

    def test_interpreter_rerun_blocks_are_counted(self):
        # x + y > :v can raise twice over: the two siblings stay block
        # terms in source order, and only a block whose column pass
        # raises is handed to the interpreter, counted once per block.
        total = Arithmetic(ArithmeticOp.ADD, X, Y)
        expression = BooleanExpr(
            BooleanOp.AND,
            (
                Comparison(ComparisonOp.GT, total, Parameter("lo")),
                Comparison(ComparisonOp.LT, total, Parameter("hi")),
            ),
        )
        kernel = VectorFilter(expression, SCHEMA)
        assert [term.expression for term in kernel.root.terms] == list(
            expression.operands
        )
        reset_vector_stats()
        with parameter_scope({"lo": 2, "hi": 9}):
            selection = kernel(RowBlock(list(ROWS)))
            assert selection == [
                i for i, (x, y) in enumerate(ROWS)
                if x is not None and y is not None and 2 < x + y < 9
            ]
            assert vector_stats().get("vector.fallback_terms", 0) == 0
            raising = list(ROWS) + [(1, "one")]
            for _ in range(2):
                with pytest.raises(ExpressionError) as raised:
                    kernel(RowBlock(raising))
                assert str(raised.value) == "cannot compute 1 + 'one'"
        assert vector_stats()["vector.fallback_terms"] == 2

    def test_concurrent_bindings_share_one_kernel(self):
        expression = BooleanExpr(
            BooleanOp.AND,
            (
                Comparison(ComparisonOp.GE, X, Parameter("lo")),
                Comparison(ComparisonOp.LT, Y, Parameter("hi")),
            ),
        )
        kernel = VectorFilter(expression, SCHEMA)
        rows = list(ROWS)
        failures = []

        def worker(lo, hi):
            expected = [
                i for i, (x, y) in enumerate(rows)
                if x is not None and y is not None and x >= lo and y < hi
            ]
            with parameter_scope({"lo": lo, "hi": hi}):
                for _ in range(300):
                    if kernel(RowBlock(rows)) != expected:
                        failures.append((lo, hi))
                        return

        threads = [
            threading.Thread(target=worker, args=(lo, hi))
            for lo, hi in ((0, 5), (3, 2), (5, 4), (6, 1))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures

    def test_blocks_never_change_a_shared_kernel(self):
        # One memoized kernel serves every execution on every thread, so
        # running a block must not write to it: the term order and every
        # slot of every term stay as the compile left them.
        expression = BooleanExpr(
            BooleanOp.AND,
            (
                InList(X, (lit(1), lit(2), lit(3), lit(5))),
                BooleanExpr(
                    BooleanOp.OR,
                    (
                        Comparison(ComparisonOp.EQ, Y, Parameter("y")),
                        Not(Comparison(ComparisonOp.LT, X, Parameter("x"))),
                        IsNull(Y, negated=False),
                    ),
                ),
                Comparison(ComparisonOp.GE, Y, Parameter("lo")),
            ),
        )
        kernel = compile_vector_filter(expression, SCHEMA)
        assert compile_vector_filter(expression, SCHEMA) is kernel
        before = _term_state(kernel.root)
        rows = [(i % 7, i % 5) for i in range(400)] + [(None, 1), (2, None)]
        blocks = [rows[start:start + 48] for start in range(0, len(rows), 16)]
        bindings = ({"y": 3, "x": 4, "lo": 1}, {"y": 0, "x": 2, "lo": 0})
        serial = []
        for binding in bindings:
            with parameter_scope(binding):
                serial.append([kernel(RowBlock(block)) for block in blocks])
        assert serial[0] != serial[1]
        failures = []

        def worker(binding, expected):
            with parameter_scope(binding):
                for _ in range(20):
                    got = [kernel(RowBlock(block)) for block in blocks]
                    if got != expected:
                        failures.append(binding)
                        return

        # Four threads on the two bindings: more workers than cores.
        threads = [
            threading.Thread(target=worker, args=pair)
            for pair in zip(bindings * 2, serial * 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert _term_state(kernel.root) == before


def _term_state(root):
    """Every ``__slots__`` value of every term under ``root``, with each
    composite's ``terms`` copied, so a later comparison sees any write."""
    state, pending = [], [root]
    while pending:
        term = pending.pop()
        for cls in type(term).__mro__:
            for name in getattr(cls, "__slots__", ()):
                value = getattr(term, name)
                if name == "terms":
                    pending.extend(value)
                    value = list(value)
                elif name == "inner":
                    pending.append(value)
                state.append((id(term), name, value))
    return state


class TestNullAndErrors:
    @pytest.mark.parametrize("mode", MODES)
    def test_null_binding_is_unknown(self, nullable_db, mode):
        def rows(sql, **parameters):
            plan = plan_query(nullable_db, sql)
            return execute(
                nullable_db, plan, parameters=parameters, mode=mode
            ).rows

        assert rows("select k from t where a > :v", v=None) == []
        assert rows("select k from t where not (a > :v)", v=None) == []
        assert rows("select k from t where a > :v and b = :w", v=None, w=1) == []
        # unknown OR true is true: only the second arm selects.
        assert rows(
            "select k from t where a > :v or b = :w order by k", v=None, w=1
        ) == run_query(
            nullable_db, "select k from t where b = 1 order by k", mode=mode
        ).rows

    @pytest.mark.parametrize("table", ["t", "empty"])
    def test_unbound_raises_identically_before_the_first_row(
        self, nullable_db, table
    ):
        plan = plan_query(
            nullable_db,
            f"select k from {table} where a > :lo and k < :hi order by k",
        )
        assert plan.parameter_names == ("hi", "lo")
        for parameters, missing in (
            (None, "hi"),
            ({}, "hi"),
            ({"hi": 5}, "lo"),
            ({"lo": 5}, "hi"),
        ):
            messages = set()
            for mode in MODES:
                with pytest.raises(ExpressionError) as raised:
                    execute(nullable_db, plan, parameters=parameters, mode=mode)
                messages.add(str(raised.value))
            assert len(messages) == 1
            assert f"unbound host variable :{missing};" in messages.pop()

    def test_unbound_message_is_the_lookup_message(self):
        with pytest.raises(ExpressionError) as at_bind:
            require_bound(("v",), {})
        with pytest.raises(ExpressionError) as at_lookup:
            active_value("v")
        assert str(at_bind.value) == str(at_lookup.value)

    def test_parameters_everywhere_in_the_plan_are_collected(self, nullable_db):
        plan = plan_query(
            nullable_db,
            "select s, sum(a + :bump) as total from t "
            "where k >= :low and b < :cap group by s order by s",
        )
        assert plan.parameter_names == ("bump", "cap", "low")

    @pytest.mark.parametrize("mode", MODES)
    def test_incomparable_binding_fails_like_the_literal(self, nullable_db, mode):
        with pytest.raises(TypeSystemError) as literal:
            run_query(
                nullable_db,
                "select k from t where b >= 0 and a > 'seven'",
                mode=mode,
            )
        plan = plan_query(nullable_db, "select k from t where b >= :w and a > :v")
        with pytest.raises(TypeSystemError) as bound:
            execute(
                nullable_db, plan, parameters={"v": "seven", "w": 0}, mode=mode
            )
        assert str(bound.value) == str(literal.value)
