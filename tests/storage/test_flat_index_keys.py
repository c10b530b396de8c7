"""Flat index keys and the unguarded descent bounds.

``encode_index_keys`` gives every key column exactly two tuple elements
(an ascending value's ``(band, value)`` sort key, NULL's being
``NULL_PAIR``, or a descending ``_Reversed`` sort key and a filler). It
is the engine's one ordered multi-column key (index trees and probes,
merge joins, the merge exchange), so the flat keys must order and tie
exactly as the nested per-column ``sort_key`` tuples, be ``2 * columns``
long, and have the key over the first *k* columns as their first *2k*
elements, so prefix bounds slice.

``BPlusTree._find_leaf`` narrows its separator interval without guard
compares; it is held to the guarded loop it replaced, kept below as
:func:`guarded_find_leaf`, on bulk-loaded trees of several fanouts
whose duplicate runs cross leaf and internal node edges.
"""

import datetime
from bisect import bisect_left
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.core.ordering import SortDirection
from repro.sqltypes import NULL, sort_key
from repro.storage import BPlusTree, BufferPool
from repro.storage.database import encode_index_key, encode_index_keys
from repro.storage.heap import Rid

ASC, DESC = SortDirection.ASC, SortDirection.DESC

# Few values per kind, with cross-kind ties: the floats equal Decimals
# and ints, and True == 1 in Python but not in sort_key.
_VALUES = st.one_of(
    st.integers(-2, 2),
    st.sampled_from([Decimal("0.5"), Decimal("1.00"), Decimal("2")]),
    st.sampled_from([0.5, 1.0, 2.0, -0.0]),
    st.sampled_from(["", "a", "A"]),
    st.sampled_from([datetime.date(1995, 3, 1), datetime.date(1996, 1, 1)]),
    st.booleans(),
    st.sampled_from([None, NULL]),
)


@st.composite
def keyed_rows(draw):
    """``(columns, directions)``: 1-3 key columns of one length."""
    width = draw(st.integers(1, 3))
    size = draw(st.integers(1, 10))
    directions = draw(
        st.lists(st.sampled_from([ASC, DESC]), min_size=width, max_size=width)
    )
    columns = [
        draw(st.lists(_VALUES, min_size=size, max_size=size))
        for _ in range(width)
    ]
    return columns, directions


def _nested(values, directions):
    """The per-column sort-key tuple index keys used to be."""
    return tuple(
        sort_key(value, direction is DESC)
        for value, direction in zip(values, directions)
    )


def _cmp(left, right):
    return (left > right) - (left < right)


@settings(max_examples=300, deadline=None)
@given(keyed_rows())
def test_flat_keys_order_like_the_nested_sort_keys(case):
    columns, directions = case
    flat = encode_index_keys(columns, directions)
    nested = [_nested(values, directions) for values in zip(*columns)]
    for left in range(len(flat)):
        assert len(flat[left]) == 2 * len(columns)
        for right in range(len(flat)):
            assert _cmp(flat[left], flat[right]) == _cmp(
                nested[left], nested[right]
            )
            assert (flat[left] == flat[right]) == (
                nested[left] == nested[right]
            )


@settings(max_examples=200, deadline=None)
@given(keyed_rows())
def test_a_prefix_key_is_the_stored_keys_head(case):
    columns, directions = case
    stored = encode_index_keys(columns, directions)
    for width in range(1, len(columns) + 1):
        prefix = encode_index_keys(columns[:width], directions[:width])
        assert prefix == [key[: 2 * width] for key in stored]
    for values, key in zip(zip(*columns), stored):
        assert encode_index_key(values, directions) == key


def test_index_keys_are_per_value_sort_keys():
    rows = [(3, None), (1, 5), (None, 2), (2, 2)]
    columns = [list(column) for column in zip(*rows)]
    expected = [(*sort_key(a), sort_key(b, True), None) for a, b in rows]
    assert encode_index_keys(columns, [ASC, DESC]) == expected
    assert sort_key(None) == sort_key(NULL) == (4, None)
    # No key columns: the empty key.
    assert encode_index_keys([], []) == []
    assert encode_index_key([], []) == ()


def test_one_column_keys_are_the_sort_key_pairs():
    assert encode_index_keys([[21, "x"]], [ASC]) == [(0, 21), (1, "x")]
    assert encode_index_key([None], [ASC]) > encode_index_key(["zz"], [ASC])
    assert encode_index_key([None], [DESC]) < encode_index_key([5], [DESC])


def guarded_find_leaf(tree, key):
    """``_find_leaf`` before its bounds went unguarded: a deeper
    separator replaces a bound only when it is strictly tighter."""
    node = tree._root
    path = [node.page_id]
    lower = upper = None
    while not node.is_leaf:
        separators = node.keys
        child_index = bisect_left(separators, key)
        if child_index and (
            lower is None or separators[child_index - 1] > lower
        ):
            lower = separators[child_index - 1]
        if child_index < len(separators) and (
            upper is None or separators[child_index] < upper
        ):
            upper = separators[child_index]
        node = node.children[child_index]
        path.append(node.page_id)
    return path, node, lower, upper


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 12), min_size=1, max_size=120),
    st.integers(4, 8),
)
def test_unguarded_bounds_equal_the_guarded_ones(values, fanout):
    # Few distinct values: duplicate runs span leaves, and their first
    # key becomes a separator at several levels.
    tree = BPlusTree("t", BufferPool(64), fanout=fanout)
    tree.bulk_load(
        ((0, value), Rid(0, slot)) for slot, value in enumerate(values)
    )
    probes = [(0, value) for value in range(-1, 14)] + [(0,), (1, 0)]
    for probe in probes:
        path, leaf, lower, upper = tree._find_leaf(probe)
        want_path, want_leaf, want_lower, want_upper = guarded_find_leaf(
            tree, probe
        )
        assert (path, lower, upper) == (want_path, want_lower, want_upper)
        assert leaf is want_leaf
        # Every key inside the interval takes the same path.
        for other in probes:
            inside = (lower is None or lower < other) and (
                upper is None or other <= upper
            )
            if inside:
                assert tree._find_leaf(other)[0] == path
