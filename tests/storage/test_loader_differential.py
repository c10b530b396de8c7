"""The column-at-a-time loader against the row loop it replaced.

``StoredTable`` (validate and key-check a column at a time, append a
page at a time, key indexes through the column encoder) is held to
``ReferenceTable`` (``tests/storage/reference_loader.py``, the row loop
kept verbatim) on the same loads and index builds: the stored rows with
their exact value types and Decimal exponents, every index tree node by
node, the statistics, the buffer pool's counters, what each operation
returns, and the type and message of the first error. After an error
the column path must have changed nothing, so a sequence stops at its
first error.
"""

import datetime
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Index, IndexColumn, TableSchema
from repro.catalog.column import Column
from repro.core.ordering import SortDirection
from repro.sqltypes import (
    DATE,
    DOUBLE,
    INTEGER,
    NULL,
    decimal_type,
    varchar,
)
from repro.storage.buffer import BufferPool
from repro.storage.database import StoredTable
from repro.tpcd import TpcdGenerator, tpcd_indexes, tpcd_schema
from repro.verify.gen import GenConfig, generate_schema

from tests.storage.reference_loader import ReferenceTable
from tests.tpcd.test_build_digest import _stats_lines


def _tree_form(tree):
    nodes = []
    level = [tree._root]
    while level:
        below = []
        for node in level:
            nodes.append((node.page_id, node.is_leaf, repr(node.keys)))
            if node.is_leaf:
                nodes.append([tuple(rid) for rid in node.values])
            else:
                below.extend(node.children)
        level = below
    return tree.height, tree.entry_count, nodes


def snapshot(store):
    """Everything a load or index build leaves behind, in comparable
    form."""
    partitioned = store.partitioning is not None
    heaps = (
        [store.heap.partition(p) for p in range(store.heap.partition_count)]
        if partitioned
        else [store.heap]
    )
    heap = []
    for part in heaps:
        pages, page_ids = part.page_tables()
        for page_id, page in zip(page_ids, pages):
            heap.append(page_id)
            # A value's repr names its type (a date from a datetime, 1
            # from 1.0 and True) and a Decimal's sign, digits and
            # exponent; the type tuple catches subclasses besides.
            heap.extend(
                (type(row), tuple(map(type, row)), repr(row)) for row in page
            )
    indexes = {}
    for name, (_index, tree) in store.indexes.items():
        trees = tree._trees if partitioned else [tree]
        indexes[name] = [_tree_form(each) for each in trees]
    return {
        "heap": heap,
        "indexes": indexes,
        "stats": list(_stats_lines(store.schema.stats)),
        "io": repr(store._buffer_pool.stats),
    }


def _apply(store, operation):
    kind, argument = operation
    if kind == "load":
        return store.load(argument)
    return store.add_index(argument).entry_count


def run(table_class, make_schema, operations):
    """``(outcome, snapshot)`` after each operation, up to and
    including the first that raises (its outcome is the error's type
    name and message).

    For ``StoredTable`` a failed operation must leave the snapshot as
    it was.
    """
    store = table_class(make_schema(), BufferPool(64))
    trace = []
    before = snapshot(store)
    for operation in operations:
        try:
            outcome = _apply(store, operation)
        except Exception as error:
            if table_class is StoredTable:
                assert snapshot(store) == before, "a failed operation wrote"
            trace.append(((type(error).__name__, str(error)), None))
            break
        before = snapshot(store)
        trace.append((outcome, before))
    return trace


def assert_loads_like_reference(make_schema, operations):
    expected = run(ReferenceTable, make_schema, operations)
    actual = run(StoredTable, make_schema, operations)
    for step, (want, got) in enumerate(zip(expected, actual)):
        assert got[0] == want[0], (step, operations[step][0])
        if want[1] is not None:
            for part in want[1]:
                assert got[1][part] == want[1][part], (step, part)
    assert len(actual) == len(expected)
    return expected


# ----------------------------------------------------------------------
# TPC-D
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def tpcd_rows():
    generator = TpcdGenerator(0.002)
    orders, lineitems = generator.order_and_lineitem_rows()
    return {
        "region": list(generator.region_rows()),
        "nation": list(generator.nation_rows()),
        "supplier": list(generator.supplier_rows()),
        "customer": list(generator.customer_rows()),
        "part": list(generator.part_rows()),
        "partsupp": list(generator.partsupp_rows()),
        "orders": orders,
        "lineitem": lineitems,
    }


def _tpcd_indexes(table):
    return [
        ("index", index) for index in tpcd_indexes()
        if index.table_name == table
    ]


@pytest.mark.parametrize(
    "table",
    ["region", "nation", "supplier", "customer", "part", "partsupp",
     "orders", "lineitem"],
)
def test_tpcd_tables_load_like_the_row_loop(tpcd_rows, table):
    rows = tpcd_rows[table]
    indexes = _tpcd_indexes(table)
    make_schema = lambda: tpcd_schema()[table]  # noqa: E731
    # As the build does it (indexes after the load), and with the
    # indexes first, so the load rebuilds them from its own rows.
    assert_loads_like_reference(make_schema, [("load", rows)] + indexes)
    assert_loads_like_reference(make_schema, indexes + [("load", rows)])


# ----------------------------------------------------------------------
# Generated corpora (hash- and range-partitioned tables among them)
# ----------------------------------------------------------------------

CORPORA = [
    (7, GenConfig()),
    (8, GenConfig()),
    (2026, GenConfig()),
    (3, GenConfig(row_scale=2.0)),
    (4, GenConfig(tables=5)),
    (11, GenConfig(tables=5)),
]


def _corpus_tables():
    for seed, config in CORPORA:
        for table in generate_schema(seed, config).tables:
            yield f"{seed}/{table.name}", table


def _table_operations(table):
    return [
        ("index", Index.on(name, table.name, list(columns), unique=unique))
        for name, columns, unique, _clustered in table.indexes
    ]


def _make_schema(table):
    return lambda: TableSchema(
        table.name,
        list(table.columns),
        primary_key=table.primary_key or (),
        partitioning=table.partitioning,
    )


def test_the_corpora_hold_partitioned_tables():
    kinds = {
        table.partitioning.kind
        for _name, table in _corpus_tables()
        if table.partitioning is not None
    }
    assert len(kinds) == 2


@pytest.mark.parametrize(
    "name,table", list(_corpus_tables()), ids=[n for n, _ in _corpus_tables()]
)
def test_corpus_tables_load_and_insert_like_the_row_loop(name, table):
    make_schema = _make_schema(table)
    indexes = _table_operations(table)
    assert_loads_like_reference(make_schema, [("load", table.rows)] + indexes)
    # Storage is load-only: the second half goes in by reloading the
    # indexed table with every row, the first half's keys repeated.
    half = len(table.rows) // 2
    assert_loads_like_reference(
        make_schema,
        [("load", table.rows[:half])] + indexes + [("load", table.rows)],
    )


# ----------------------------------------------------------------------
# Adversarial rows
# ----------------------------------------------------------------------


def adversarial_schema():
    return TableSchema(
        "t",
        [
            Column("a", INTEGER, nullable=False),
            Column("x", DOUBLE),
            Column("m", decimal_type(15, 2)),
            Column("d", DATE),
            Column("s", varchar(4)),
            Column("b", INTEGER),
        ],
        primary_key=("a",),
        unique_keys=[("s", "d")],
    )


INDEXES = [
    Index(
        "t_b_desc",
        "t",
        [IndexColumn("b", SortDirection.DESC), IndexColumn("a")],
    ),
    Index.on("t_m", "t", ["m"]),
    Index.on("t_sd", "t", ["s", "d"], unique=True),
]

_BAD_NUMBERS = [
    True,
    False,
    "7",
    NULL,
    datetime.date(2000, 1, 1),
]
_DECIMALS = st.decimals(
    min_value=-10**6, max_value=10**6, places=2,
    allow_nan=False, allow_infinity=False,
)
_DATES = st.dates(datetime.date(1990, 1, 1), datetime.date(1999, 12, 31))

_COLUMNS = [
    # a: INTEGER NOT NULL, the primary key (small, so keys collide)
    st.one_of(
        st.integers(0, 40), st.integers(0, 40), st.integers(0, 40),
        st.sampled_from(_BAD_NUMBERS + [None, Decimal("3"), Decimal("3.5"),
                                        Decimal("sNaN"), 3.0]),
    ),
    # x: DOUBLE
    st.one_of(
        st.floats(allow_nan=True), st.floats(-100, 100), st.integers(-9, 9),
        _DECIMALS, st.none(), st.sampled_from(_BAD_NUMBERS + [10**400]),
    ),
    # m: DECIMAL(15, 2)
    st.one_of(
        _DECIMALS, _DECIMALS, _DECIMALS, st.none(), st.integers(-99, 99),
        st.floats(allow_nan=True, allow_infinity=True),
        st.decimals(places=3, allow_nan=False, allow_infinity=False),
        st.sampled_from(_BAD_NUMBERS + [
            Decimal("NaN"), Decimal("-Infinity"), Decimal("sNaN"),
            Decimal("1" * 27 + ".00"), Decimal("9" * 26 + ".99"),
            Decimal("-" + "9" * 26 + ".99"), Decimal("-0.00"),
            Decimal("1E+3"),
        ]),
    ),
    # d: DATE
    st.one_of(
        _DATES, _DATES, st.none(),
        st.datetimes(datetime.datetime(1990, 1, 1),
                     datetime.datetime(1999, 12, 31)),
        _DATES.map(datetime.date.isoformat),
        st.sampled_from(["1995-13-01", "", 19950101, NULL]),
    ),
    # s: VARCHAR(4)
    st.one_of(
        st.text("ab", max_size=4), st.text("ab", max_size=4), st.none(),
        st.text("ab", min_size=5, max_size=6), st.sampled_from([1, NULL]),
    ),
    # b: INTEGER, nullable, in a DESC index
    st.one_of(
        st.integers(-5, 5), st.integers(-5, 5), st.none(),
        st.sampled_from(_BAD_NUMBERS + [Decimal("2"), Decimal("2.5"),
                                        Decimal("-0"), 2.0]),
    ),
]


@st.composite
def adversarial_row(draw):
    values = [draw(column) for column in _COLUMNS]
    shape = draw(st.sampled_from(["tuple"] * 8 + ["list", "short", "long"]))
    if shape == "short":
        values.pop()
    elif shape == "long":
        values.append(0)
    return values if shape == "list" else tuple(values)


@st.composite
def operations(draw):
    rows = draw(st.lists(adversarial_row(), max_size=12))
    before = draw(st.lists(st.sampled_from(INDEXES), max_size=2, unique=True))
    after = [index for index in INDEXES if index not in before]
    reload = draw(st.lists(adversarial_row(), max_size=3))
    return (
        [("index", index) for index in before]
        + [("load", rows)]
        + [("index", index) for index in after]
        + [("load", rows + reload)]
    )


@settings(max_examples=150, deadline=None)
@given(operations())
def test_adversarial_rows_load_like_the_row_loop(sequence):
    assert_loads_like_reference(adversarial_schema, sequence)


def _row(a, x=1.5, m=Decimal("1.00"), d=datetime.date(1995, 1, 1), s=None,
         b=1):
    return (a, x, m, d, s, b)


def _type_error(message):
    return ("TypeSystemError", message)


def _catalog_error(message):
    return ("CatalogError", message)


_BAD_DATE = _type_error("bad date literal '1995-13-01'")
_BOOLEAN_KEY = _type_error("cannot store boolean True in INTEGER")
_LONG_STRING = _type_error("string of length 5 exceeds VARCHAR(4)")
_NULL_KEY = _catalog_error("NULL in NOT NULL column t.a")
_SHORT_ROW = _catalog_error("row arity 5 != 6 for table t")

# (label, rows, outcome): the rows loaded, and the stored row count or
# the first error's (type, message). A conversion's arithmetic error is
# raised as a TypeSystemError naming it; the label names that error.
FAULT_CASES = [
    # Two faults in different rows and columns, in both orders.
    ("InvalidOperation",
     [_row(1), _row(2, m=Decimal("Infinity")), _row(3, d="1995-13-01")],
     _type_error(
         "cannot store Decimal('Infinity') in DECIMAL(15,2): "
         "InvalidOperation"
     )),
    ("TypeSystemError",
     [_row(1), _row(2, d="1995-13-01"), _row(3, m=Decimal("Infinity"))],
     _BAD_DATE),
    ("TypeSystemError", [_row(1, s="abcde"), _row(None)], _LONG_STRING),
    ("CatalogError", [_row(None), _row(1, s="abcde")], _NULL_KEY),
    # NULL in a NOT NULL column and a bad value below it, and above.
    ("CatalogError", [_row(1), _row(None), _row(True)], _NULL_KEY),
    ("TypeSystemError", [_row(True), _row(None)], _BOOLEAN_KEY),
    # Within one row the leftmost column's fault wins.
    ("TypeSystemError", [_row(1), _row(2, x="1", b=True)],
     _type_error("cannot store '1' in DOUBLE")),
    # A duplicate key before a bad value wins, and after it loses.
    ("CatalogError", [_row(1), _row(1), _row(2, b=True)],
     _catalog_error("duplicate key ('a',) = (1,) in table t")),
    ("TypeSystemError", [_row(1), _row(2, b=True), _row(1)], _BOOLEAN_KEY),
    # The second key collides first; NULL-bearing keys never do.
    ("CatalogError", [_row(1, s="x"), _row(2), _row(3, s="x"), _row(3)],
     _catalog_error(
         "duplicate key ('s', 'd') = ('x', datetime.date(1995, 1, 1)) "
         "in table t"
     )),
    # A short row after a bad value, and before one.
    ("CatalogError",
     [_row(1, m=Decimal("1.005")), _row(2)[:5], _row(3, b=2.5)],
     _SHORT_ROW),
    ("TypeSystemError", [_row(1, b=2.5), _row(2)[:5]],
     _type_error("cannot store 2.5 in INTEGER")),
    # Conversions that overflow or meet a signalling NaN.
    ("OverflowError",
     [_row(1), _row(2, x=10**400), _row(Decimal("sNaN"))],
     _type_error(f"cannot store {10**400} in DOUBLE: OverflowError")),
    ("InvalidOperation",
     [_row(1), _row(Decimal("sNaN")), _row(2, x=10**400)],
     _type_error("cannot store Decimal('sNaN') in INTEGER: InvalidOperation")),
    # 29 digits at the column's scale, beside canonical values.
    ("InvalidOperation", [_row(1), _row(2, m=Decimal("1" * 27 + ".00"))],
     _type_error(
         f"cannot store Decimal('{'1' * 27}.00') in DECIMAL(15,2): "
         "InvalidOperation"
     )),
    # NaN is no value of DOUBLE or DECIMAL: the load stores nothing.
    ("TypeSystemError", [_row(1, x=float("nan")), _row(2)],
     _type_error("cannot store nan in DOUBLE")),
    ("TypeSystemError", [_row(1, m=Decimal("NaN")), _row(2)],
     _type_error("cannot store Decimal('NaN') in DECIMAL(15,2)")),
    ("2", [_row(1), _row(2)], 2),
    # NaN among exact floats, which skip per-value validation.
    ("TypeSystemError",
     [_row(a, x=float(a)) for a in range(3)] + [_row(3, x=float("nan"))],
     _type_error("cannot store nan in DOUBLE")),
    ("TypeSystemError", [_row(1, x=Decimal("sNaN"))],
     _type_error("cannot store Decimal('sNaN') in DOUBLE")),
    ("TypeSystemError", [_row(1, m=float("nan"))],
     _type_error("cannot store nan in DECIMAL(15,2)")),
]


@pytest.mark.parametrize(
    "rows,expected",
    [
        pytest.param(rows, expected, id=f"rows{number}-{label}")
        for number, (label, rows, expected) in enumerate(FAULT_CASES)
    ],
)
def test_the_first_fault_wins(rows, expected):
    trace = assert_loads_like_reference(
        adversarial_schema,
        [("index", INDEXES[0]), ("load", rows)],
    )
    assert trace[-1][0] == expected


def test_a_canonical_load_keeps_the_callers_rows():
    rows = [_row(a) for a in range(300)]
    store = StoredTable(adversarial_schema(), BufferPool(64))
    store.load(rows)
    stored = [row for _rid, row in store.heap.scan()]
    assert all(mine is theirs for mine, theirs in zip(stored, rows))
    assert len(stored) == len(rows)
