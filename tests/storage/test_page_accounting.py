"""Storage fast paths charge exactly what the generic paths charge.

The I/O simulation is part of the paper reproduction, so a shortcut may
save Python work but never a page access. Pinned here, page id by page
id and in order:

* ``BPlusTree.probe`` and the per-operator ``ProbeCursor`` against
  ``scan_range(low=key, high=key)``;
* ``scan_range`` (positions by bisect) against the compare-every-entry
  walk it replaced, kept below as :func:`reference_scan`, and against a
  digest of traces recorded from that implementation before the rewrite;
* ``IndexScanOp``'s block body (``scan_runs`` leaf slices, ``fetch_run``,
  one ``access_run`` per block) against ``scan_range`` plus one
  ``HeapFile.fetch`` per entry, kept below as
  :func:`reference_index_scan`;
* ``BufferPool.access_run`` against a loop of ``access``;
* ``StoredTable.analyze`` (``HeapFile.scan_pages``) against a loop over
  ``HeapFile.scan``.
"""

import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from repro.catalog import Column, Index, IndexColumn, TableSchema, hash_spec
from repro.core.ordering import SortDirection
from repro.executor import ExecutionContext, IndexScanOp
from repro.expr import RowSchema, col
from repro.sqltypes import INTEGER, varchar
from repro.storage import BPlusTree, BufferPool, Database
from repro.storage.database import encode_index_key, encode_probe_keys
from repro.storage.heap import Rid

ASC, DESC = SortDirection.ASC, SortDirection.DESC


class RecordingPool(BufferPool):
    """Logs every page id charged; ``access`` is a one-page
    ``access_run``, so this one entry point sees them all."""

    def __init__(self, capacity_pages=1024):
        super().__init__(capacity_pages)
        self.trace = []

    def access_run(self, page_ids):
        page_ids = list(page_ids)
        self.trace.extend(page_ids)
        return super().access_run(page_ids)

    def traced(self, action):
        """``(action's result, the page ids it charged)``."""
        del self.trace[:]
        result = action()
        return result, list(self.trace)


def tree_entries(pairs, directions):
    return [
        (encode_index_key(pair, directions), Rid(number, 0))
        for number, pair in enumerate(pairs)
    ]


def build_tree(pairs, directions, fanout):
    """Two-column tree over ``pairs``; few distinct leading values, so
    duplicates of a prefix straddle leaf boundaries at these fanouts."""
    pool = RecordingPool()
    tree = BPlusTree("t", pool, fanout=fanout)
    tree.bulk_load(tree_entries(pairs, directions))
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
    pairs, directions, fanout, bounds, shuffle_seed
):
    tree, pool = build_tree(pairs, directions, fanout)
    keys = sorted(encoded(bound, directions) for bound in bounds)
    shuffled = list(keys)
    random.Random(shuffle_seed).shuffle(shuffled)
    # Sorted input keeps the cursor replaying its last descent, reversed
    # and shuffled input keep invalidating it.
    for ordering in (keys, keys[::-1], shuffled):
        owners, rids, pages = [], [], []
        for position, key in enumerate(ordering):
            expected = pool.traced(
                lambda: [
                    rid for _key, rid in tree.scan_range(low=key, high=key)
                ]
            )
            assert pool.traced(lambda: tree.probe(key)) == expected
            owners += [position] * len(expected[0])
            rids += expected[0]
            pages += expected[1]
        run = []
        result, charged = pool.traced(
            lambda: tree.probe_cursor().probe_block(ordering, None, run)
        )
        assert charged == [], "a cursor collects pages, it charges none"
        assert (result, run) == ((owners, rids), pages)


def test_ordered_probes_replay_the_descent():
    """The fast path runs: a monotone probe stream descends once per
    leaf, not once per key."""
    tree, _pool = build_tree(
        [(value, 0) for value in range(96)], (ASC, ASC), 8
    )
    descents = []
    find_leaf = tree._find_leaf
    tree._find_leaf = lambda *args: descents.append(args) or find_leaf(*args)
    leaves = sum(1 for _ in _leaves(tree))
    assert 4 * leaves < 96
    keys = [encode_index_key((value,), (ASC,)) for value in range(96)]
    owners, rids = tree.probe_cursor().probe_block(keys + keys[::-1], None, [])
    assert owners == list(range(2 * len(keys))) and len(rids) == 2 * len(keys)
    assert len(descents) <= 2 * leaves


def test_cursor_survives_a_bulk_load_of_its_tree():
    """A reload renumbers the tree's nodes: the cursor's remembered
    descent must not be replayed."""
    tree, pool = build_tree([(5, slot) for slot in range(2)], (ASC, ASC), 4)
    key = encode_index_key((5,), (ASC,))
    cursor = tree.probe_cursor()
    assert len(cursor.probe_block((key,), None, [])[1]) == 2
    pairs = [(4, 0)] * 6 + [(5, slot) for slot in range(12)]
    tree.bulk_load(tree_entries(pairs, (ASC, ASC)))
    assert tree.height > 1
    run = []
    _owners, rids = cursor.probe_block((key,), None, run)
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
    pairs, directions, fanout, ranges
):
    tree, pool = build_tree(pairs, directions, fanout)
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
# below, recorded by running this function against the entry-by-entry
# scan that bisect positions replaced (commit 89d4052). Node numbering
# comes from bulk_load, which did not change, so the digest moves only
# if a scan returns different rids or touches different pages.
RECORDED_SCAN_TRACES = (
    "9c529f08fc53479cd984d96264a5f1f92cdabd08c23ff1c03739e2873d351620"
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
        tree, pool = build_tree(pairs, directions, rng.randint(4, 8))
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
# Index scans
# ----------------------------------------------------------------------

T_SCHEMA = RowSchema([col("t", "a"), col("t", "b"), col("t", "pad")])


def build_table(pairs, directions, fanout, partitioned, capacity):
    """Table ``t(a, b, pad)`` loaded from ``pairs``, index ``t_ab`` on
    ``(a, b)`` built at ``fanout``. ``pad``'s declared width keeps a
    heap page to a handful of rows, so leaf and heap pages interleave."""
    database = Database()
    pool = database.buffer_pool = RecordingPool(capacity)
    database.create_table(
        TableSchema(
            "t",
            [
                Column("a", INTEGER),
                Column("b", INTEGER),
                Column("pad", varchar(1000)),
            ],
            partitioning=hash_spec(["b"], 2) if partitioned else None,
        ),
        rows=[(a, b, "") for a, b in pairs],
    )
    index = Index(
        "t_ab",
        "t",
        [IndexColumn("a", directions[0]), IndexColumn("b", directions[1])],
    )
    database.catalog.create_index(index)
    database.store("t").add_index(index, fanout=fanout)
    return database, pool


def reference_index_scan(
    database, batch_size, partition, low, high, low_inclusive,
    high_inclusive, descending,
):
    """``IndexScanOp``'s blocks as produced before leaf runs:
    ``scan_range`` entry by entry, one ``HeapFile.fetch`` per RID, and
    a block yielded as soon as ``batch_size`` rows are collected."""
    store = database.store("t")
    index, tree = store.indexes["t_ab"]
    if partition is not None:
        tree = tree.partition(partition)
    directions = [column.direction for column in index.key]
    batch = []
    for _key, rid in tree.scan_range(
        encoded(low, directions),
        encoded(high, directions),
        low_inclusive,
        high_inclusive,
        descending,
    ):
        batch.append(store.heap.fetch(rid))
        if len(batch) >= batch_size:
            yield batch
            batch = []
    if batch:
        yield batch


@settings(max_examples=150, deadline=None)
@given(
    pairs=pairs_strategy,
    directions=tree_arguments["directions"],
    fanout=st.integers(4, 8),
    scan=range_strategy,
    batch=st.sampled_from(["one", "two", "leaf", "large"]),
    stop_after=st.none() | st.integers(1, 4),
    partition=st.none() | st.integers(0, 1),
    capacity=st.sampled_from([2, 1024]),
)
def test_index_scan_blocks_charge_what_the_row_at_a_time_scan_charged(
    pairs, directions, fanout, scan, batch, stop_after, partition, capacity
):
    database, pool = build_table(
        pairs, directions, fanout, partition is not None, capacity
    )
    # "leaf": a packed leaf's entry count, so blocks end on leaf edges.
    batch_size = {
        "one": 1, "two": 2, "leaf": max(2, (fanout * 3) // 4), "large": 1024
    }[batch]
    pool.clear()
    expected = pool.traced(
        lambda: list(
            islice(
                reference_index_scan(database, batch_size, partition, *scan),
                stop_after,
            )
        )
    )
    expected_stats = pool.stats.snapshot()
    operator = IndexScanOp("t", "t_ab", "t", T_SCHEMA, *scan, partition)
    context = ExecutionContext(database, batch_size=batch_size)
    pool.clear()
    assert pool.traced(
        lambda: [
            block.materialize()
            for block in islice(operator.blocks(context), stop_after)
        ]
    ) == expected
    assert pool.stats == expected_stats


@pytest.mark.parametrize(
    "scan",
    [
        (None, None, True, True, False),
        (None, None, True, True, True),
        ((2,), (9, 1), False, True, False),
        ((2,), (9, 1), True, False, True),
        ((5,), (5,), True, True, False),
    ],
    ids=["full", "full-desc", "bounded", "bounded-desc", "probe"],
)
@pytest.mark.parametrize("stop_after", [1, 2, 3, None])
@pytest.mark.parametrize("batch_size", [3, 5])
def test_index_scan_stops_on_and_between_leaf_edges(scan, stop_after, batch_size):
    """Packed fanout-4 leaves hold 3 entries: 3-row blocks end on leaf
    edges, where the next leaf must not be charged until asked for, and
    5-row blocks end mid-leaf."""
    pairs = [(value % 13, value % 4) for value in range(60)]
    database, pool = build_table(pairs, (ASC, DESC), 4, False, 1024)
    pool.clear()
    expected = pool.traced(
        lambda: list(
            islice(
                reference_index_scan(database, batch_size, None, *scan),
                stop_after,
            )
        )
    )
    operator = IndexScanOp("t", "t_ab", "t", T_SCHEMA, *scan)
    context = ExecutionContext(database, batch_size=batch_size)
    pool.clear()
    assert expected[0], "the scan must return rows"
    assert pool.traced(
        lambda: [
            block.materialize()
            for block in islice(operator.blocks(context), stop_after)
        ]
    ) == expected


# ----------------------------------------------------------------------
# Index nested-loop probe blocks
# ----------------------------------------------------------------------


def _trees(database):
    tree = database.store("t").indexes["t_ab"][1]
    if isinstance(tree, BPlusTree):
        return [tree]
    return [tree.partition(part) for part in range(tree.partition_count)]


def reference_probe_block(database, keys):
    """The index nested-loop join's probes as made before block probes:
    per key, each tree's ``scan_range(low=key, high=key)`` walk (one
    per partition, in partition order), then one ``HeapFile.fetch`` per
    RID; a ``None`` key is skipped. ``(owners, rows)`` as
    ``probe_block`` returns them."""
    heap = database.store("t").heap
    owners, rows = [], []
    for position, key in enumerate(keys):
        if key is None:
            continue
        rids = [
            rid
            for tree in _trees(database)
            for _key, rid in tree.scan_range(low=key, high=key)
        ]
        owners += [position] * len(rids)
        rows += [heap.fetch(rid) for rid in rids]
    return owners, rows


probe_value = st.none() | st.integers(-1, 13)


@settings(max_examples=150, deadline=None)
@given(
    pairs=pairs_strategy,
    directions=tree_arguments["directions"],
    fanout=st.integers(4, 8),
    values=st.lists(
        st.tuples(probe_value, st.none() | st.integers(-1, 4)), max_size=40
    ),
    width=st.sampled_from([1, 2]),
    ordered=st.booleans(),
    batch=st.sampled_from(["one", "two", "leaf", "large"]),
    partitioned=st.booleans(),
    capacity=st.sampled_from([2, 1024]),
)
def test_probe_blocks_charge_what_probe_and_fetch_charge(
    pairs, directions, fanout, values, width, ordered, batch, partitioned,
    capacity,
):
    database, pool = build_table(
        pairs, directions, fanout, partitioned, capacity
    )
    columns = [list(column) for column in zip(*values)][:width] or [[]] * width
    keys = encode_probe_keys(columns, directions[:width])
    if ordered:
        # The sort-ahead outer of the ordered nested-loop join: NULL
        # keys gather at the end, where NULLs sort.
        keys = sorted(filter(None, keys)) + [None] * keys.count(None)
    batch_size = {
        "one": 1, "two": 2, "leaf": max(2, (fanout * 3) // 4), "large": 1024
    }[batch]
    pool.clear()
    expected = pool.traced(lambda: reference_probe_block(database, keys))
    expected_stats = pool.stats.snapshot()

    def blocks():
        # One cursor across the blocks, one run charged per block: the
        # operator's ``_blocks`` loop.
        tree = database.store("t").indexes["t_ab"][1]
        cursor = tree.probe_cursor()
        owners, rows = [], []
        for start in range(0, len(keys), batch_size):
            run = []
            block_owners, block_rows = cursor.probe_block(
                keys[start : start + batch_size], database.store("t").heap, run
            )
            pool.access_run(run)
            owners += [start + owner for owner in block_owners]
            rows += block_rows
        return owners, rows

    pool.clear()
    assert pool.traced(blocks) == expected
    assert pool.stats == expected_stats


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


@pytest.mark.parametrize("capacity", [2, 1024])
@pytest.mark.parametrize(
    "partitioned", [False, True], ids=["plain", "partitioned"]
)
def test_analyze_charges_what_a_heap_scan_charges(partitioned, capacity):
    pairs = [(value % 13, value % 4) for value in range(62)]
    database, pool = build_table(pairs, (ASC, ASC), 4, partitioned, capacity)
    store = database.store("t")
    pool.clear()
    rows, expected = pool.traced(
        lambda: [row for _rid, row in store.heap.scan()]
    )
    expected_stats = pool.stats.snapshot()
    pool.clear()
    stats, charged = pool.traced(store.analyze)
    assert len(expected) > 4, "the heap must span several pages"
    assert charged == expected
    assert pool.stats == expected_stats
    assert stats.row_count == len(rows) == 62


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
