"""The index nested-loop join's probe keys, built a column at a time.

``encode_probe_keys`` keys each probe column through its type census;
the keys must be exactly the per-row ``encode_index_key`` tuples, with
``None`` for every row that holds a NULL in any probe column.
"""

import datetime
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.core.ordering import SortDirection
from repro.sqltypes import NULL, is_null
from repro.storage.database import encode_index_key, encode_probe_keys

ASC, DESC = SortDirection.ASC, SortDirection.DESC

# Each kind drawn from a few values with cross-kind ties: the floats
# equal Decimals the decimal kind holds, and True == 1 in Python but not
# in sort_key.
_SCALARS = {
    "int": st.integers(-2, 2),
    "decimal": st.sampled_from([Decimal("0.5"), Decimal("1.00"), Decimal("2")]),
    "float": st.sampled_from([0.5, 1.0, 2.0, -0.0]),
    "bool": st.booleans(),
    "str": st.sampled_from(["", "a", "A"]),
    "date": st.sampled_from(
        [datetime.date(1995, 3, 1), datetime.date(1996, 1, 1)]
    ),
}


@st.composite
def probe_column(draw, size):
    """One kind (the census fast paths) or a mix, with or without None
    and the NULL marker."""
    kinds = draw(
        st.lists(st.sampled_from(sorted(_SCALARS)), min_size=1, max_size=3)
    )
    nulls = draw(st.sampled_from([(), (None,), (NULL,), (None, NULL)]))
    element = st.one_of(
        [_SCALARS[kind] for kind in kinds] + [st.just(null) for null in nulls]
    )
    return draw(st.lists(element, min_size=size, max_size=size))


@st.composite
def probe_columns(draw):
    size = draw(st.integers(0, 12))
    width = draw(st.integers(1, 2))
    return [draw(probe_column(size)) for _ in range(width)]


@settings(max_examples=200, deadline=None)
@given(
    probe_columns(),
    st.lists(st.sampled_from([ASC, DESC]), min_size=2, max_size=2),
)
def test_census_keys_equal_per_row_encoding(columns, directions):
    directions = directions[: len(columns)]
    expected = [
        None
        if any(is_null(value) for value in values)
        else encode_index_key(values, directions)
        for values in zip(*columns)
    ]
    assert encode_probe_keys(columns, directions) == expected


def test_a_float_probes_the_equal_decimal():
    for direction in (ASC, DESC):
        assert encode_probe_keys([[0.5, 1.0]], [direction]) == (
            encode_probe_keys([[Decimal("0.50"), 1]], [direction])
        )


def test_a_null_in_any_probe_column_is_never_probed():
    columns = [[1, None, 3, NULL], ["a", "b", None, "d"]]
    keys = encode_probe_keys(columns, [ASC, DESC])
    assert keys[1:] == [None, None, None]
    assert keys[0] == encode_index_key((1, "a"), (ASC, DESC))
