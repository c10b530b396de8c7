"""Join operators, cross-validated against a brute-force join."""

import random
from decimal import Decimal

import pytest

from repro import Column, Database, Index, TableSchema, run_query
from repro.catalog import hash_spec
from repro.core import OrderSpec
from repro.errors import ExecutionError
from repro.executor import (
    MODE_INTERPRETED,
    MODE_VECTOR,
    ExecutionContext,
    HashJoinOp,
    MergeJoinOp,
    NestedLoopIndexJoinOp,
    NestedLoopJoinOp,
    SortOp,
    TableScanOp,
)
from repro.expr import (
    Arithmetic,
    ArithmeticOp,
    BooleanExpr,
    BooleanOp,
    Comparison,
    ComparisonOp,
    RowSchema,
    col,
    lit,
)
from repro.optimizer.plan import OpKind
from repro.sqltypes import DOUBLE, INTEGER, decimal_type
from repro.verify.oracle import tier1_matrix
from repro.verify.reference import reference_query

RA, RB = col("r", "a"), col("r", "b")
SA, SB = col("s", "a"), col("s", "b")
R_SCHEMA = RowSchema([RA, RB])
S_SCHEMA = RowSchema([SA, SB])


@pytest.fixture
def db():
    rng = random.Random(11)
    database = Database()
    database.create_table(
        TableSchema(
            "r",
            [Column("a", INTEGER), Column("b", INTEGER)],
        ),
        rows=[(rng.randint(0, 20), rng.randint(0, 5)) for _ in range(60)]
        + [(None, 1)],
    )
    database.create_table(
        TableSchema(
            "s",
            [Column("a", INTEGER), Column("b", INTEGER)],
        ),
        rows=[(rng.randint(0, 20), rng.randint(0, 5)) for _ in range(40)]
        + [(None, 2)],
    )
    database.create_index(Index.on("s_a", "s", ["a"], clustered=True))
    return database


def expected_join(db):
    r_rows = [row for _rid, row in db.store("r").heap.scan()]
    s_rows = [row for _rid, row in db.store("s").heap.scan()]
    return sorted(
        left + right
        for left in r_rows
        for right in s_rows
        if left[0] is not None and left[0] == right[0]
    )


def scan_r():
    return TableScanOp("r", "r", R_SCHEMA)


def scan_s():
    return TableScanOp("s", "s", S_SCHEMA)


def run(op, db):
    return op.execute(ExecutionContext(db))


JOIN_PRED = Comparison(ComparisonOp.EQ, RA, SA)


class TestNestedLoopJoin:
    def test_matches_brute_force(self, db):
        rows = run(NestedLoopJoinOp(scan_r(), scan_s(), JOIN_PRED), db)
        assert sorted(rows) == expected_join(db)

    def test_cross_product_without_predicate(self, db):
        rows = run(NestedLoopJoinOp(scan_r(), scan_s(), None), db)
        assert len(rows) == 61 * 41


class TestIndexNlj:
    def make(self, db, ordered=False, residual=None):
        return NestedLoopIndexJoinOp(
            outer=scan_r(),
            table_name="s",
            index_name="s_a",
            alias="s",
            inner_schema=S_SCHEMA,
            probe_columns=[RA],
            residual=residual,
            ordered=ordered,
        )

    def test_matches_brute_force(self, db):
        rows = run(self.make(db), db)
        assert sorted(rows) == expected_join(db)

    def test_null_probe_skipped(self, db):
        rows = run(self.make(db), db)
        assert all(row[0] is not None for row in rows)

    def test_residual_applied(self, db):
        residual = Comparison(ComparisonOp.EQ, SB, lit(3))
        rows = run(self.make(db, residual=residual), db)
        assert all(row[3] == 3 for row in rows)
        assert sorted(rows) == sorted(
            row for row in expected_join(db) if row[3] == 3
        )

    def test_ordered_probes_mostly_sequential(self, db):
        ordered_op = NestedLoopIndexJoinOp(
            outer=SortOp(scan_r(), OrderSpec.of(RA)),
            table_name="s",
            index_name="s_a",
            alias="s",
            inner_schema=S_SCHEMA,
            probe_columns=[RA],
            ordered=True,
        )
        db.reset_io(cold=True)
        run(ordered_op, db)
        stats = db.buffer_pool.stats
        assert stats.random_misses <= stats.sequential_misses + stats.hits


class TestMergeJoin:
    def sorted_inputs(self):
        return (
            SortOp(scan_r(), OrderSpec.of(RA)),
            SortOp(scan_s(), OrderSpec.of(SA)),
        )

    def test_matches_brute_force(self, db):
        outer, inner = self.sorted_inputs()
        rows = run(MergeJoinOp(outer, inner, [RA], [SA]), db)
        assert sorted(rows) == expected_join(db)

    def test_duplicates_on_both_sides(self, db):
        # Force heavy duplication.
        database = Database()
        database.create_table(
            TableSchema("r", [Column("a", INTEGER), Column("b", INTEGER)]),
            rows=[(1, i) for i in range(3)] + [(2, 9)],
        )
        database.create_table(
            TableSchema("s", [Column("a", INTEGER), Column("b", INTEGER)]),
            rows=[(1, i) for i in range(4)],
        )
        outer = SortOp(TableScanOp("r", "r", R_SCHEMA), OrderSpec.of(RA))
        inner = SortOp(TableScanOp("s", "s", S_SCHEMA), OrderSpec.of(SA))
        rows = run(MergeJoinOp(outer, inner, [RA], [SA]), database)
        assert len(rows) == 12  # 3 x 4

    def test_residual(self, db):
        outer, inner = self.sorted_inputs()
        residual = Comparison(ComparisonOp.EQ, RB, SB)
        rows = run(MergeJoinOp(outer, inner, [RA], [SA], residual), db)
        assert all(row[1] == row[3] for row in rows)

    def test_key_arity_guard(self, db):
        outer, inner = self.sorted_inputs()
        with pytest.raises(ExecutionError):
            MergeJoinOp(outer, inner, [RA], [])


class TestHashJoin:
    def test_matches_brute_force(self, db):
        rows = run(HashJoinOp(scan_r(), scan_s(), [RA], [SA]), db)
        assert sorted(rows) == expected_join(db)

    def test_preserves_probe_order(self, db):
        outer = SortOp(scan_r(), OrderSpec.of(RA))
        rows = run(HashJoinOp(outer, scan_s(), [RA], [SA]), db)
        values = [row[0] for row in rows]
        assert values == sorted(values)

    def test_nulls_never_match(self, db):
        rows = run(HashJoinOp(scan_r(), scan_s(), [RA], [SA]), db)
        assert all(row[0] is not None for row in rows)

    def test_key_arity_guard(self, db):
        with pytest.raises(ExecutionError):
            HashJoinOp(scan_r(), scan_s(), [], [])


class TestIndexNljPageAccounting:
    """The block body charges the pages of a whole outer block in one
    ``access_run``; the interpreted row body charges ``probe`` + ``fetch``
    one access at a time. From a cold pool both must return the same
    rows and leave the same ``IoStats`` — including when the pool is far
    smaller than the inner table, where the *order* of accesses decides
    what is evicted."""

    @staticmethod
    def build(pool_pages, partitioning=None):
        rng = random.Random(24)
        database = Database(buffer_pool_pages=pool_pages)
        database.create_table(
            TableSchema("r", [Column("a", INTEGER), Column("b", INTEGER)]),
            # Half the outer values have no inner match: sorted, whole
            # blocks of them probe (and are charged) without output.
            rows=[(rng.randint(0, 800), rng.randint(0, 5)) for _ in range(300)]
            + [(None, 1), (7, None)],
        )
        database.create_table(
            TableSchema(
                "s",
                [Column("a", INTEGER), Column("b", INTEGER)],
                partitioning=partitioning,
            ),
            rows=[
                (rng.randint(0, 400), rng.randint(0, 5)) for _ in range(6000)
            ],
        )
        database.create_index(Index.on("s_a", "s", ["a"]))
        database.create_index(Index.on("s_ab", "s", ["a", "b"]))
        return database

    @staticmethod
    def join(outer, index_name="s_a", probe_columns=(RA,), **kwargs):
        return NestedLoopIndexJoinOp(
            outer=outer,
            table_name="s",
            index_name=index_name,
            alias="s",
            inner_schema=S_SCHEMA,
            probe_columns=list(probe_columns),
            **kwargs,
        )

    @pytest.mark.parametrize(
        "shape",
        [
            "ordered",
            "unordered",
            "left_outer",
            "residual",
            "two_column",
            "partitioned",
        ],
    )
    @pytest.mark.parametrize("pool_pages", [3, 2048])
    def test_engines_charge_the_same_pages(self, shape, pool_pages):
        database = self.build(
            pool_pages,
            partitioning=hash_spec(["a"], 3) if shape == "partitioned" else None,
        )
        heap = database.store("s").heap
        assert heap.page_count > 3, "a 3-page pool must evict"
        outer = (
            scan_r()
            if shape == "unordered"
            else SortOp(scan_r(), OrderSpec.of(RA, RB))
        )
        operator = {
            "left_outer": lambda: self.join(outer, left_outer=True),
            "residual": lambda: self.join(
                outer, residual=Comparison(ComparisonOp.EQ, SB, lit(3))
            ),
            "two_column": lambda: self.join(
                outer, index_name="s_ab", probe_columns=(RA, RB)
            ),
        }.get(shape, lambda: self.join(outer, ordered=shape == "ordered"))()
        outcomes = {}
        for mode in ("vector", "interpreted"):
            database.reset_io(cold=True)
            # Small batches: the NULL probe values and the unmatched
            # outer rows land in several blocks, not one.
            context = ExecutionContext(database, mode=mode, batch_size=64)
            outcomes[mode] = (operator.execute(context), database.buffer_pool.stats)
        rows, stats = outcomes["vector"]
        assert rows, "the shape must produce matches"
        assert any(row[0] is None for row in rows) == (shape == "left_outer")
        assert outcomes["interpreted"] == (rows, stats)
        assert stats.total_misses > (heap.page_count if pool_pages == 3 else 0)


@pytest.fixture(scope="module")
def double_decimal_db():
    """``a.x`` DOUBLE and ``b.y`` DECIMAL(4,2) holding equal numbers:
    the float 0.1 and Decimal('0.10') are one value to SQL (and to
    ``sort_key``), and neither NULL row matches anything."""
    values = [0.1, 0.5, 1.0, 0.3, None]
    database = Database()
    database.create_table(
        TableSchema(
            "a", [Column("k", INTEGER, nullable=False), Column("x", DOUBLE)]
        ),
        rows=[(k, value) for k, value in enumerate(values, 1)],
    )
    database.create_table(
        TableSchema(
            "b",
            [
                Column("k", INTEGER, nullable=False),
                Column("y", decimal_type(4, 2)),
            ],
        ),
        rows=[
            (k, None if value is None else Decimal(f"{value:.2f}"))
            for k, value in enumerate(values, 1)
        ],
    )
    return database


DOUBLE_DECIMAL_SQL = (
    "select a.k, b.k from a, b where a.x = b.y order by 1, 2",
    "select a.k, b.k from a, b where a.x = b.y and a.k = b.k order by 1, 2",
)


def test_double_decimal_equi_join_plans_a_hash_join(double_decimal_db):
    for sql in DOUBLE_DECIMAL_SQL:
        plan = run_query(double_decimal_db, sql).plan
        assert plan.find_all(OpKind.HASH_JOIN), sql


@pytest.mark.parametrize("mode", [MODE_VECTOR, MODE_INTERPRETED])
@pytest.mark.parametrize("config_name", sorted(tier1_matrix()))
@pytest.mark.parametrize("sql", DOUBLE_DECIMAL_SQL)
def test_double_decimal_equi_join_matches_reference(
    double_decimal_db, sql, config_name, mode
):
    result = run_query(
        double_decimal_db, sql, config=tier1_matrix()[config_name], mode=mode
    )
    expected = reference_query(double_decimal_db, sql)
    assert expected == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert result.rows == expected


@pytest.fixture(scope="module")
def residual_db():
    """``r`` and ``s`` with NULLs and zeros in ``b``: residuals over
    ``b`` are unknown on some pairs and divide by zero on others."""
    database = Database()
    database.create_table(
        TableSchema("r", [Column("a", INTEGER), Column("b", INTEGER)]),
        rows=[(1, 0), (1, 2), (2, None), (3, 4), (None, 1), (2, 5), (4, 1)],
    )
    database.create_table(
        TableSchema("s", [Column("a", INTEGER), Column("b", INTEGER)]),
        rows=[(1, 3), (2, None), (2, 1), (3, 0), (None, 2), (1, 0)],
    )
    database.create_index(Index.on("s_a", "s", ["a"]))
    return database


def _divide(numerator, column):
    return Arithmetic(ArithmeticOp.DIV, lit(numerator), column)


# ``10 / s.b + 10 / r.b > 1`` raises on pairs with r.b = 0 and on pairs
# with s.b = 0. The first outer row (1, 0) meets s (1, 3) first, so the
# interpreter raises on r.b; a column pass over its candidates would
# meet s (1, 0)'s s.b first.
RAISING = Comparison(
    ComparisonOp.GT,
    Arithmetic(ArithmeticOp.ADD, _divide(10, SB), _divide(10, RB)),
    lit(1),
)
UNKNOWN_ON_NULL = Comparison(ComparisonOp.LT, RB, SB)

JOIN_SHAPES = {
    "naive_nlj": lambda residual: NestedLoopJoinOp(
        scan_r(),
        scan_s(),
        BooleanExpr(BooleanOp.AND, (JOIN_PRED, residual)),
    ),
    "merge": lambda residual: MergeJoinOp(
        SortOp(scan_r(), OrderSpec.of(RA)),
        SortOp(scan_s(), OrderSpec.of(SA)),
        [RA],
        [SA],
        residual,
    ),
    "left_outer_index_nlj": lambda residual: NestedLoopIndexJoinOp(
        outer=scan_r(),
        table_name="s",
        index_name="s_a",
        alias="s",
        inner_schema=S_SCHEMA,
        probe_columns=[RA],
        residual=residual,
        left_outer=True,
    ),
    "left_outer_hash": lambda residual: HashJoinOp(
        scan_r(), scan_s(), [RA], [SA], residual, left_outer=True
    ),
}


def _join_outcome(op, database, mode):
    try:
        return op.execute(ExecutionContext(database, mode=mode))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


class TestResidualsInBothEngines:
    """Each join shape filters its candidate pairs through the one
    residual helper: rows and errors agree across engines."""

    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    def test_raising_residual(self, residual_db, shape):
        outcomes = {
            mode: _join_outcome(JOIN_SHAPES[shape](RAISING), residual_db, mode)
            for mode in (MODE_INTERPRETED, MODE_VECTOR)
        }
        assert outcomes[MODE_INTERPRETED] == (
            "ExpressionError: division by zero in (10 / r.b)"
        )
        assert outcomes[MODE_VECTOR] == outcomes[MODE_INTERPRETED]

    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    def test_residual_unknown_on_null(self, residual_db, shape):
        rows = {
            mode: _join_outcome(
                JOIN_SHAPES[shape](UNKNOWN_ON_NULL), residual_db, mode
            )
            for mode in (MODE_INTERPRETED, MODE_VECTOR)
        }
        assert rows[MODE_VECTOR] == rows[MODE_INTERPRETED]
        matched = [row for row in rows[MODE_VECTOR] if row[2] is not None]
        # Pairs whose b is NULL on either side are unknown: never kept.
        assert matched and all(row[1] < row[3] for row in matched)
        if shape.startswith("left_outer"):
            padded = {row[:2] for row in rows[MODE_VECTOR] if row[2] is None}
            assert (2, None) in padded and (None, 1) in padded


@pytest.fixture(scope="module")
def integer_decimal_db():
    """An INTEGER key against a DECIMAL one, NULLs on both sides."""
    database = Database()
    database.create_table(
        TableSchema("r", [Column("a", INTEGER), Column("b", INTEGER)]),
        rows=[(2, 1), (None, 2), (1, 3), (3, 4), (2, 5), (None, 6)],
    )
    database.create_table(
        TableSchema("s", [Column("a", decimal_type(4, 1)), Column("b", INTEGER)]),
        rows=[
            (Decimal("2.0"), 10),
            (None, 20),
            (Decimal("1.5"), 30),
            (Decimal("1.0"), 40),
            (Decimal("2"), 50),
        ],
    )
    return database


@pytest.mark.parametrize("mode", [MODE_INTERPRETED, MODE_VECTOR])
def test_merge_join_integer_decimal_keys_with_nulls(integer_decimal_db, mode):
    op = MergeJoinOp(
        SortOp(scan_r(), OrderSpec.of(RA)),
        SortOp(scan_s(), OrderSpec.of(SA)),
        [RA],
        [SA],
    )
    rows = op.execute(ExecutionContext(integer_decimal_db, mode=mode))
    # NULL keys never match; 2 meets both 2.0 and 2, 1 meets 1.0.
    assert sorted((row[1], row[3]) for row in rows) == [
        (1, 10), (1, 50), (3, 40), (5, 10), (5, 50)
    ]
