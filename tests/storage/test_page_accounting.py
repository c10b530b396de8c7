"""Storage fast paths charge exactly what the generic paths charge.

The I/O simulation is part of the paper reproduction, so a shortcut may
save Python work but never a page access. Pinned here, page id by page
id and in order:

* ``BPlusTree.probe`` and the per-operator ``ProbeCursor`` against
  ``scan_range(low=key, high=key)``;
* ``scan_range`` (positions by bisect) against the compare-every-entry
  walk it replaced, kept below as :func:`reference_scan`, and against a
  digest of traces recorded from that implementation before the rewrite;
* ``BufferPool.access_run`` against a loop of ``access``.
"""

import hashlib
import random

from hypothesis import given, settings, strategies as st

from repro.core.ordering import SortDirection
from repro.storage import BPlusTree, BufferPool
from repro.storage.database import encode_index_key
from repro.storage.heap import Rid

ASC, DESC = SortDirection.ASC, SortDirection.DESC


class RecordingPool(BufferPool):
    """Logs every page id charged, through either entry point."""

    def __init__(self, capacity_pages=1024):
        super().__init__(capacity_pages)
        self.trace = []

    def access(self, page_id):
        self.trace.append(page_id)
        return super().access(page_id)

    def access_run(self, page_ids):
        page_ids = list(page_ids)
        self.trace.extend(page_ids)
        super().access_run(page_ids)

    def traced(self, action):
        """``(action's result, the page ids it charged)``."""
        del self.trace[:]
        result = action()
        return result, list(self.trace)


def build_tree(pairs, directions, fanout, bulk):
    """Two-column tree over ``pairs``; few distinct leading values, so
    duplicates of a prefix straddle leaf boundaries at these fanouts."""
    pool = RecordingPool()
    tree = BPlusTree("t", pool, fanout=fanout)
    entries = [
        (encode_index_key(pair, directions), Rid(number, 0))
        for number, pair in enumerate(pairs)
    ]
    if bulk:
        tree.bulk_load(entries)
    else:
        for key, rid in entries:
            tree.insert(key, rid)
    return tree, pool


# Stored leading values are 0..12; bounds reach one below and one above,
# and a sparse draw leaves gaps between them.
pairs_strategy = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 3)), max_size=90
)
bound_strategy = st.one_of(
    st.tuples(st.integers(-1, 13)),
    st.tuples(st.integers(-1, 13), st.integers(-1, 4)),
)
tree_arguments = dict(
    pairs=pairs_strategy,
    directions=st.tuples(
        st.sampled_from([ASC, DESC]), st.sampled_from([ASC, DESC])
    ),
    fanout=st.integers(4, 8),
    bulk=st.booleans(),
)


def encoded(bound, directions):
    return None if bound is None else encode_index_key(bound, directions)


# ----------------------------------------------------------------------
# Point probes
# ----------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(
    bounds=st.lists(bound_strategy, min_size=1, max_size=25),
    shuffle_seed=st.integers(0, 1000),
    **tree_arguments,
)
def test_probe_and_cursor_charge_what_the_range_scan_charges(
    pairs, directions, fanout, bulk, bounds, shuffle_seed
):
    tree, pool = build_tree(pairs, directions, fanout, bulk)
    keys = sorted(encoded(bound, directions) for bound in bounds)
    shuffled = list(keys)
    random.Random(shuffle_seed).shuffle(shuffled)
    # Sorted input keeps the cursor replaying its last descent, reversed
    # and shuffled input keep invalidating it.
    for ordering in (keys, keys[::-1], shuffled):
        cursor = tree.probe_cursor()
        for key in ordering:
            expected = pool.traced(
                lambda: [
                    rid for _key, rid in tree.scan_range(low=key, high=key)
                ]
            )
            assert pool.traced(lambda: tree.probe(key)) == expected
            run = []
            rids, charged = pool.traced(lambda: cursor.probe(key, run))
            assert charged == [], "a cursor collects pages, it charges none"
            assert (rids, run) == expected


def test_ordered_probes_replay_the_descent():
    """The fast path runs: a monotone probe stream descends once per
    leaf, not once per key."""
    tree, _pool = build_tree(
        [(value, 0) for value in range(96)], (ASC, ASC), 8, bulk=True
    )
    descents = []
    find_leaf = tree._find_leaf
    tree._find_leaf = lambda *args: descents.append(args) or find_leaf(*args)
    leaves = sum(1 for _ in _leaves(tree))
    assert 4 * leaves < 96
    keys = [encode_index_key((value,), (ASC,)) for value in range(96)]
    cursor = tree.probe_cursor()
    for key in keys + keys[::-1]:
        assert len(cursor.probe(key, [])) == 1
    assert len(descents) <= 2 * leaves


def test_cursor_survives_a_split_of_its_leaf():
    tree, pool = build_tree(
        [(5, slot) for slot in range(4)], (ASC, ASC), 4, bulk=False
    )
    key = encode_index_key((5,), (ASC,))
    cursor = tree.probe_cursor()
    assert len(cursor.probe(key, [])) == 4
    for slot in range(4, 12):
        tree.insert(encode_index_key((5, slot), (ASC, ASC)), Rid(slot, 0))
    assert tree.height > 1
    run = []
    rids = cursor.probe(key, run)
    assert (rids, run) == pool.traced(lambda: tree.probe(key))
    assert len(rids) == 12


# ----------------------------------------------------------------------
# Range scans
# ----------------------------------------------------------------------


def _leaves(tree):
    node = tree._root
    while not node.is_leaf:
        node = node.children[0]
    while node is not None:
        yield node
        node = node.next_leaf


def _reference_descend(tree, key, rightmost, trace):
    node = tree._root
    trace.append(node.page_id)
    while not node.is_leaf:
        if key is None:
            node = node.children[-1 if rightmost else 0]
        else:
            node = node.children[
                sum(1 for separator in node.keys if separator < key)
            ]
        trace.append(node.page_id)
    return node


def reference_scan(tree, low, high, low_inclusive, high_inclusive, descending):
    """``(entries, page ids)`` of the scan as implemented before
    positions were found by bisect: every stored key of every visited
    leaf is sliced to the bound's width and compared."""
    entries, trace = [], []
    if tree.entry_count == 0:
        return entries, trace

    def below(key):
        prefix = key[: len(low)] if low is not None else None
        return low is not None and (
            prefix < low or (not low_inclusive and prefix == low)
        )

    def above(key):
        prefix = key[: len(high)] if high is not None else None
        return high is not None and (
            prefix > high or (not high_inclusive and prefix == high)
        )

    if not descending:
        leaf = _reference_descend(tree, low, False, trace)
        while leaf is not None:
            for key, rid in zip(leaf.keys, leaf.values):
                if below(key):
                    continue
                if above(key):
                    return entries, trace
                entries.append((key, rid))
            leaf = leaf.next_leaf
            if leaf is not None:
                trace.append(leaf.page_id)
        return entries, trace
    leaf = _reference_descend(tree, high, high is None, trace)
    while leaf.next_leaf is not None and (
        high is None or leaf.next_leaf.keys[0][: len(high)] <= high
    ):
        leaf = leaf.next_leaf
        trace.append(leaf.page_id)
    while leaf is not None:
        for key, rid in zip(reversed(leaf.keys), reversed(leaf.values)):
            if above(key):
                continue
            if below(key):
                return entries, trace
            entries.append((key, rid))
        leaf = leaf.prev_leaf
        if leaf is not None:
            trace.append(leaf.page_id)
    return entries, trace


range_strategy = st.tuples(
    st.none() | bound_strategy,
    st.none() | bound_strategy,
    st.booleans(),
    st.booleans(),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(ranges=st.lists(range_strategy, min_size=1, max_size=12), **tree_arguments)
def test_range_scan_charges_what_the_entry_by_entry_walk_charged(
    pairs, directions, fanout, bulk, ranges
):
    tree, pool = build_tree(pairs, directions, fanout, bulk)
    for low, high, low_inclusive, high_inclusive, descending in ranges:
        arguments = (
            encoded(low, directions),
            encoded(high, directions),
            low_inclusive,
            high_inclusive,
            descending,
        )
        assert pool.traced(
            lambda: list(tree.scan_range(*arguments))
        ) == reference_scan(tree, *arguments)


# sha256 over the (rids, page ids) of every scan of the seeded corpus
# below, recorded by running this function against the implementation
# this PR replaced (commit 89d4052). Node numbering comes from insert /
# bulk_load, which did not change, so the digest moves only if a scan
# returns different rids or touches different pages.
RECORDED_SCAN_TRACES = (
    "2e5771024c1754ee8aaf612f2895ec03e06d95df6ed300f727d5947e9bd4d642"
)


def scan_trace_digest():
    rng = random.Random(24)
    digest = hashlib.sha256()

    def bound():
        if rng.random() < 0.2:
            return None
        return (rng.randint(-1, 13),) + (
            (rng.randint(-1, 4),) if rng.random() < 0.5 else ()
        )

    for number in range(60):
        pairs = [
            (rng.randint(0, 12), rng.randint(0, 3))
            for _ in range(rng.choice([0, 1, 7, 40, 90]))
        ]
        directions = (rng.choice([ASC, DESC]), rng.choice([ASC, DESC]))
        tree, pool = build_tree(
            pairs, directions, rng.randint(4, 8), bulk=number % 2 == 0
        )
        for _ in range(25):
            low, high = encoded(bound(), directions), encoded(bound(), directions)
            flags = [rng.random() < 0.5 for _ in range(3)]
            entries, trace = pool.traced(
                lambda: list(tree.scan_range(low, high, *flags))
            )
            rids = [(rid.page_no, rid.slot) for _key, rid in entries]
            digest.update(repr((rids, trace)).encode())
    return digest.hexdigest()


def test_range_scan_traces_match_the_recording():
    assert scan_trace_digest() == RECORDED_SCAN_TRACES


# ----------------------------------------------------------------------
# Buffer pool runs
# ----------------------------------------------------------------------

page_strategy = st.tuples(
    st.sampled_from(["f", "g"]),
    # Steps of up to 80 pages cross PREFETCH_WINDOW in both directions.
    st.integers(0, 80),
)


@settings(max_examples=200, deadline=None)
@given(
    capacity=st.sampled_from([1, 2, 5, 64]),
    pages=st.lists(
        st.tuples(page_strategy, st.integers(1, 3)), max_size=60
    ),
    cuts=st.lists(st.integers(0, 180), max_size=4),
)
def test_access_run_equals_a_loop_of_access(capacity, pages, cuts):
    assert BufferPool.PREFETCH_WINDOW < 80
    accesses = [page for page, repeats in pages for _ in range(repeats)]
    looped, charged = BufferPool(capacity), BufferPool(capacity)
    for page_id in accesses:
        looped.access(page_id)
    # Several runs, cut at arbitrary points: a repeat across a cut is a
    # hit by residency rather than by adjacency.
    edges = [0] + sorted(cuts) + [len(accesses)]
    for start, stop in zip(edges, edges[1:]):
        charged.access_run(accesses[start:stop])
    assert charged.stats == looped.stats
    assert list(charged._resident) == list(looped._resident)
    assert charged._last_missed_page == looped._last_missed_page
