"""Heap files and the Database facade."""

import pytest

from repro import Column, Database, Index, TableSchema
from repro.errors import CatalogError, StorageError
from repro.sqltypes import INTEGER, varchar
from repro.storage import BufferPool, HeapFile
from repro.storage.heap import Rid


class TestHeapFile:
    def make(self, rows_per_page=4):
        return HeapFile("h", BufferPool(64), rows_per_page)

    def test_append_and_fetch(self):
        heap = self.make()
        rid = heap.append((1, "a"))
        assert heap.fetch(rid) == (1, "a")

    def test_pagination(self):
        heap = self.make(rows_per_page=4)
        for i in range(10):
            heap.append((i,))
        assert heap.page_count == 3
        assert heap.row_count == 10

    def test_scan_order(self):
        heap = self.make()
        for i in range(9):
            heap.append((i,))
        scanned = [row[0] for _rid, row in heap.scan()]
        assert scanned == list(range(9))

    def test_bad_rid(self):
        heap = self.make()
        heap.append((1,))
        with pytest.raises(StorageError):
            heap.fetch(Rid(5, 0))

    def test_truncate(self):
        heap = self.make()
        heap.append((1,))
        heap.truncate()
        assert heap.row_count == 0

    def test_rows_per_page_guard(self):
        with pytest.raises(StorageError):
            HeapFile("h", BufferPool(8), 0)


def make_db():
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [Column("a", INTEGER, nullable=False), Column("b", varchar(8))],
            primary_key=("a",),
        ),
        rows=[(i, f"s{i % 3}") for i in range(100)],
    )
    return db


class TestDatabase:
    def test_load_and_stats(self):
        db = make_db()
        table = db.catalog.table("t")
        assert table.stats.row_count == 100
        assert table.stats.column("a").ndv == 100
        assert table.stats.column("b").ndv == 3

    def test_create_index_bulk_loads(self):
        db = make_db()
        db.create_index(Index.on("t_a", "t", ["a"], unique=True))
        tree = db.index_tree("t_a")
        assert tree.entry_count == 100

    def test_insert_validates(self):
        """Rows go in by load: a NULL in a NOT NULL column fails it, and
        the failed load leaves the table as it was."""
        db = make_db()
        with pytest.raises(CatalogError, match="NULL in NOT NULL"):
            db.store("t").load([(1000, "zz"), (None, "x")])
        assert db.store("t").row_count() == 100

    def test_unknown_store(self):
        with pytest.raises(CatalogError):
            make_db().store("missing")

    def test_reset_io_modes(self):
        db = make_db()
        list(db.store("t").heap.scan())
        assert db.buffer_pool.stats.total_accesses > 0
        db.reset_io()
        assert db.buffer_pool.stats.total_accesses == 0
        assert db.buffer_pool.resident_count() > 0
        db.reset_io(cold=True)
        assert db.buffer_pool.resident_count() == 0

    def test_reload_refreshes_stats(self):
        db = make_db()
        db.store("t").load([(1, "only")])
        assert db.catalog.table("t").stats.row_count == 1


class TestKeyEnforcement:
    """Declared keys are enforced — the FD machinery depends on it."""

    def test_duplicate_primary_key_on_load(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_table(
                TableSchema(
                    "k1",
                    [Column("a", INTEGER, nullable=False)],
                    primary_key=("a",),
                ),
                rows=[(1,), (2,), (1,)],
            )

    def test_composite_key_enforced(self):
        db = Database()
        with pytest.raises(CatalogError):
            db.create_table(
                TableSchema(
                    "k3",
                    [
                        Column("a", INTEGER, nullable=False),
                        Column("b", INTEGER, nullable=False),
                    ],
                    primary_key=("a", "b"),
                ),
                rows=[(1, 1), (1, 2), (1, 1)],
            )

    def test_unique_key_allows_nulls(self):
        db = Database()
        store = db.create_table(
            TableSchema(
                "k4",
                [Column("a", INTEGER), Column("b", INTEGER, nullable=False)],
                primary_key=("b",),
                unique_keys=(("a",),),
            ),
            rows=[(None, 1), (None, 2), (5, 3)],
        )
        assert store.row_count() == 3

    def test_reload_resets_key_tracking(self):
        db = Database()
        store = db.create_table(
            TableSchema(
                "k5",
                [Column("a", INTEGER, nullable=False)],
                primary_key=("a",),
            ),
            rows=[(1,), (2,)],
        )
        store.load([(1,), (2,), (3,)])  # the previous load's keys repeat
        assert store.row_count() == 3
