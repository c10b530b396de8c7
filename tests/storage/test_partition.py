"""Partitioned storage: routing, global RIDs, page accounting, keys."""

import pytest

from repro.catalog import Column, Index, TableSchema, hash_spec, range_spec
from repro.catalog.partition import _stable_hash
from repro.errors import CatalogError
from repro.sqltypes import INTEGER
from repro.storage import Database
from repro.storage.partition import _STRIDE, rid_partition


def _hash_db(rows):
    db = Database()
    db.create_table(
        TableSchema(
            "t",
            [
                Column("k", INTEGER, nullable=False),
                Column("v", INTEGER, nullable=False),
            ],
            primary_key=("k",),
            partitioning=hash_spec(["k"], 4),
        ),
        rows=rows,
    )
    return db


class TestRouting:
    def test_hash_routing_matches_stable_hash(self):
        rows = [(i, i * 10) for i in range(200)]
        db = _hash_db(rows)
        heap = db.store("t").heap
        assert heap.partition_count == 4
        for part in range(4):
            for _, row in heap.scan_partition(part):
                assert _stable_hash((row[0],)) % 4 == part

    def test_range_routing_boundaries_are_exclusive_upper_edges(self):
        spec = range_spec(["k"], [10, 20])
        assert spec.partition_count == 3
        assert spec.route((9,)) == 0
        assert spec.route((10,)) == 1  # boundary value opens the next part
        assert spec.route((19,)) == 1
        assert spec.route((20,)) == 2
        assert spec.route((1_000,)) == 2

    def test_full_scan_is_partition_major_and_loses_no_rows(self):
        rows = [(i, i) for i in range(100)]
        db = _hash_db(rows)
        heap = db.store("t").heap
        scanned = [row for _, row in heap.scan()]
        assert sorted(scanned) == sorted(rows)
        parts = [rid_partition(rid) for rid, _ in heap.scan()]
        assert parts == sorted(parts)  # partition-major order


class TestGlobalRids:
    def test_fetch_by_global_rid(self):
        db = _hash_db([(i, -i) for i in range(64)])
        heap = db.store("t").heap
        for rid, row in heap.scan():
            assert heap.fetch(rid) == row
            assert rid.page_no // _STRIDE == rid_partition(rid)

    def test_partitioned_index_is_co_partitioned(self):
        db = _hash_db([(i, i % 7) for i in range(300)])
        db.create_index(Index.on("t_k", "t", ("k",), unique=True))
        tree = db.index_tree("t_k")
        assert tree.partition_count == 4
        # Entries land in the tree of the partition their RID addresses,
        # each local tree in key order.
        scanned = 0
        for part in range(4):
            entries = list(tree.partition(part).scan_range())
            assert all(rid_partition(rid) == part for _, rid in entries)
            keys = [key for key, _ in entries]
            assert keys == sorted(keys)
            scanned += len(entries)
        assert scanned == 300
        # Local indexes have no whole-table range scan.
        assert not hasattr(tree, "scan_range")
        # Point probes hit every partition but find exactly one match.
        from repro.core.ordering import SortDirection
        from repro.storage.database import encode_index_key

        key = encode_index_key((123,), (SortDirection.ASC,))
        (rid,) = tree.probe(key)
        assert db.store("t").heap.fetch(rid)[0] == 123


class TestAccounting:
    def test_partition_pages_sum_to_table_pages(self):
        db = _hash_db([(i, i) for i in range(500)])
        heap = db.store("t").heap
        assert heap.page_count == sum(
            heap.partition_page_count(p) for p in range(4)
        )
        assert heap.row_count == 500

    def test_partition_scan_touches_only_its_pages(self):
        db = _hash_db([(i, i) for i in range(500)])
        heap = db.store("t").heap
        for part in range(4):
            pages = list(heap.scan_pages_partition(part))
            assert len(pages) == heap.partition_page_count(part)
            assert sum(len(page) for page in pages) == heap.partition(
                part
            ).row_count


class TestKeys:
    def test_duplicate_key_rejected_even_across_partition_routing(self):
        # Partition columns are the key here, so the duplicate lands in
        # the same partition and the local tree must still refuse it.
        with pytest.raises(CatalogError):
            _hash_db([(1, 10), (2, 20), (1, 30)])


class TestPruning:
    def test_equality_pruning_selects_one_partition(self):
        spec = range_spec(["d"], [250, 500, 750])
        assert spec.prune_equal((300,)) == (1,)
        assert spec.prune_equal((750,)) == (3,)

    def test_range_pruning_selects_intersecting_partitions(self):
        spec = range_spec(["d"], [250, 500, 750])
        assert spec.prune_range(500, 699) == (2,)
        assert spec.prune_range(100, 600) == (0, 1, 2)
        assert spec.prune_range(None, 10) == (0,)
        assert spec.prune_range(800, None) == (3,)
        assert spec.prune_range(None, None) == (0, 1, 2, 3)

    def test_exclusive_high_on_a_boundary_drops_the_next_partition(self):
        # d >= 250 and d < 500 covers exactly partition 1; the
        # inclusive reading must still keep partition 2.
        spec = range_spec(["d"], [250, 500, 750])
        assert spec.prune_range(250, 500, high_inclusive=False) == (1,)
        assert spec.prune_range(250, 500, high_inclusive=True) == (1, 2)

    def test_hash_spec_never_range_prunes(self):
        spec = hash_spec(["k"], 4)
        assert spec.prune_range(1, 2) == (0, 1, 2, 3)
        assert len(spec.prune_equal((42,))) == 1
