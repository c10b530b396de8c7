"""B+-tree: bulk load, probes, range scans, duplicates, direction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import StorageError
from repro.storage import BPlusTree, BufferPool
from repro.storage.heap import Rid


def make_tree(fanout=8):
    return BPlusTree("t", BufferPool(1024), fanout=fanout)


def keys_of(entries):
    return [key for key, _rid in entries]


class TestInsertAndScan:
    """Entries go in by bulk load, the tree's one way to take them."""

    def test_single_insert(self):
        tree = make_tree()
        tree.bulk_load([((5,), Rid(0, 0))])
        assert tree.probe((5,)) == [Rid(0, 0)]
        assert tree.entry_count == 1

    def test_many_inserts_sorted_scan(self):
        tree = make_tree()
        values = list(range(200))
        random.Random(3).shuffle(values)
        tree.bulk_load([((value,), Rid(value, 0)) for value in values])
        scanned = keys_of(tree.scan_range())
        assert scanned == [(v,) for v in range(200)]
        assert tree.height > 1

    def test_duplicates_preserved(self):
        tree = make_tree()
        # Five copies of 7 straddle a leaf edge (six entries per leaf).
        tree.bulk_load(
            [((3,), Rid(1, 0)), ((4,), Rid(1, 1)), ((5,), Rid(1, 2))]
            + [((7,), Rid(0, slot)) for slot in range(5)]
        )
        assert tree.probe((7,)) == [Rid(0, slot) for slot in range(5)]

    def test_probe_missing_key(self):
        tree = make_tree()
        tree.bulk_load([((1,), Rid(0, 0))])
        assert tree.probe((2,)) == []

    def test_fanout_guard(self):
        with pytest.raises(StorageError):
            BPlusTree("t", BufferPool(8), fanout=2)


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self):
        entries = [((v,), Rid(v, 0)) for v in range(500)]
        shuffled = list(entries)
        random.Random(5).shuffle(shuffled)
        tree = make_tree(fanout=16)
        tree.bulk_load(shuffled)
        assert keys_of(tree.scan_range()) == [key for key, _ in entries]
        assert tree.entry_count == 500

    def test_bulk_load_empty(self):
        tree = make_tree()
        tree.bulk_load([])
        assert list(tree.scan_range()) == []
        assert tree.entry_count == 0

    def test_bulk_load_replaces_the_contents(self):
        tree = make_tree(fanout=8)
        tree.bulk_load([((v,), Rid(v, 0)) for v in range(0, 100, 2)])
        tree.bulk_load([((v,), Rid(v, 0)) for v in (51, 50, 52)])
        assert keys_of(tree.scan_range()) == [(50,), (51,), (52,)]
        assert (tree.entry_count, tree.height) == (3, 1)


class TestRangeScans:
    def setup_method(self):
        self.tree = make_tree(fanout=8)
        self.tree.bulk_load([((v,), Rid(v, 0)) for v in range(100)])

    def test_bounded_inclusive(self):
        assert keys_of(self.tree.scan_range((10,), (13,))) == [
            (10,), (11,), (12,), (13,),
        ]

    def test_bounded_exclusive(self):
        scanned = keys_of(
            self.tree.scan_range(
                (10,), (13,), low_inclusive=False, high_inclusive=False
            )
        )
        assert scanned == [(11,), (12,)]

    def test_open_low(self):
        assert keys_of(self.tree.scan_range(high=(2,))) == [(0,), (1,), (2,)]

    def test_open_high(self):
        assert keys_of(self.tree.scan_range(low=(97,))) == [(97,), (98,), (99,)]

    def test_descending_full(self):
        scanned = keys_of(self.tree.scan_range(descending=True))
        assert scanned == [(v,) for v in range(99, -1, -1)]

    def test_descending_bounded(self):
        scanned = keys_of(self.tree.scan_range((10,), (13,), descending=True))
        assert scanned == [(13,), (12,), (11,), (10,)]

    def test_empty_range(self):
        assert keys_of(self.tree.scan_range((50,), (40,))) == []


class TestCompositeKeys:
    def test_prefix_bounds(self):
        tree = make_tree()
        tree.bulk_load(
            [((a, b), Rid(a, b)) for a in range(10) for b in range(3)]
        )
        scanned = keys_of(tree.scan_range(low=(4,), high=(4,)))
        assert scanned == [(4, 0), (4, 1), (4, 2)]

    def test_full_key_bounds(self):
        tree = make_tree()
        tree.bulk_load(
            [((a, b), Rid(a, b)) for a in range(5) for b in range(5)]
        )
        scanned = keys_of(tree.scan_range(low=(2, 1), high=(2, 3)))
        assert scanned == [(2, 1), (2, 2), (2, 3)]


class TestIoAccounting:
    def test_scans_charge_buffer_accesses(self):
        pool = BufferPool(1024)
        tree = BPlusTree("t", pool, fanout=8)
        tree.bulk_load([((v,), Rid(v, 0)) for v in range(500)])
        pool.reset_stats()
        list(tree.scan_range())
        assert pool.stats.total_accesses > 0

    def test_leaf_chain_is_sequential(self):
        pool = BufferPool(4)  # tiny pool: no residency to hide behind
        tree = BPlusTree("t", pool, fanout=8)
        tree.bulk_load([((v,), Rid(v, 0)) for v in range(2000)])
        pool.clear()
        list(tree.scan_range())
        assert pool.stats.sequential_misses > pool.stats.random_misses


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.integers(min_value=0, max_value=1000), max_size=200
    ),
    st.integers(min_value=0, max_value=1000),
    st.integers(min_value=0, max_value=1000),
)
def test_range_scan_matches_sorted_filter(values, low, high):
    """Property: a range scan returns exactly the sorted filtered keys."""
    if low > high:
        low, high = high, low
    tree = BPlusTree("t", BufferPool(1024), fanout=8)
    tree.bulk_load(
        [((value,), Rid(index, 0)) for index, value in enumerate(values)]
    )
    scanned = [key[0] for key, _rid in tree.scan_range((low,), (high,))]
    expected = sorted(v for v in values if low <= v <= high)
    assert scanned == expected
