"""TPC-D generator: shape and determinism."""

import datetime

import pytest

from repro.tpcd import TPCD_TABLES, TpcdGenerator, build_tpcd_database
from repro.tpcd.dbgen import END_DATE, START_DATE

from tests.tpcd.reference_dbgen import ReferenceTpcdGenerator

ROW_METHODS = [
    "region_rows",
    "nation_rows",
    "supplier_rows",
    "customer_rows",
    "part_rows",
    "partsupp_rows",
]


class TestGenerator:
    def test_row_counts_scale(self):
        small = TpcdGenerator(0.001)
        large = TpcdGenerator(0.01)
        assert large.customers == 10 * small.customers
        assert large.orders == 10 * small.orders

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            TpcdGenerator(0)

    def test_deterministic(self):
        one = TpcdGenerator(0.001, seed=5)
        two = TpcdGenerator(0.001, seed=5)
        assert list(one.customer_rows()) == list(two.customer_rows())
        assert one.order_and_lineitem_rows() == two.order_and_lineitem_rows()

    def test_seed_changes_data(self):
        one = list(TpcdGenerator(0.001, seed=5).customer_rows())
        two = list(TpcdGenerator(0.001, seed=6).customer_rows())
        assert one != two

    def test_lineitems_clustered_by_orderkey(self):
        _orders, lineitems = TpcdGenerator(0.001).order_and_lineitem_rows()
        keys = [(row[0], row[3]) for row in lineitems]
        assert keys == sorted(keys)

    def test_order_dates_in_spec_window(self):
        orders, _lineitems = TpcdGenerator(0.001).order_and_lineitem_rows()
        for row in orders:
            assert START_DATE <= row[4] <= END_DATE

    def test_lineitems_per_order_one_to_seven(self):
        orders, lineitems = TpcdGenerator(0.001).order_and_lineitem_rows()
        per_order = {}
        for row in lineitems:
            per_order[row[0]] = per_order.get(row[0], 0) + 1
        assert set(per_order) == {row[0] for row in orders}
        assert all(1 <= n <= 7 for n in per_order.values())

    def test_total_price_matches_lineitems(self):
        orders, lineitems = TpcdGenerator(0.001).order_and_lineitem_rows()
        sums = {}
        for row in lineitems:
            sums[row[0]] = sums.get(row[0], 0) + row[5]
        for row in orders:
            assert row[3] == sums[row[0]]


@pytest.mark.parametrize("scale_factor", [0.001, 0.003])
@pytest.mark.parametrize("seed", [19960604, 5])
def test_rows_equal_the_randrange_generator(scale_factor, seed):
    """Drawing through ``below`` leaves every table's rows as the
    generator that called ``randrange`` / ``randint`` / ``choice`` made
    them, value types and Decimal exponents included."""
    mine = TpcdGenerator(scale_factor, seed)
    theirs = ReferenceTpcdGenerator(scale_factor, seed)
    tables = {
        method: (getattr(mine, method)(), getattr(theirs, method)())
        for method in ROW_METHODS
    }
    tables["orders"], tables["lineitem"] = zip(
        mine.order_and_lineitem_rows(), theirs.order_and_lineitem_rows()
    )
    for table, (rows, expected) in tables.items():
        rows, expected = list(rows), list(expected)
        assert len(rows) == len(expected), table
        for number, (row, want) in enumerate(zip(rows, expected)):
            assert repr(row) == repr(want), (table, number)


class TestBuildDatabase:
    def test_all_tables_loaded(self, tpcd_db):
        for name in TPCD_TABLES:
            assert tpcd_db.store(name).row_count() > 0

    def test_indexes_present(self, tpcd_db):
        assert tpcd_db.catalog.index("idx_l_orderkey").clustered
        assert tpcd_db.catalog.index("pk_orders").unique

    def test_stats_collected(self, tpcd_db):
        stats = tpcd_db.catalog.table("customer").stats
        assert stats.row_count == tpcd_db.store("customer").row_count()
        assert stats.column("c_mktsegment").ndv == 5

    def test_referential_shape(self, tpcd_db):
        customer_keys = {
            row[0] for _r, row in tpcd_db.store("customer").heap.scan()
        }
        for _r, row in tpcd_db.store("orders").heap.scan():
            assert row[1] in customer_keys
