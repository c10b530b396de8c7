"""``TableStats.collect`` equals the row loop it replaced, field by field.

``collect`` reads one column at a time; :func:`reference_collect` below
is the row-at-a-time loop it replaced, kept as the oracle. Every field
the optimizer reads is compared, with ``low`` / ``high`` and the sample
values by type and ``repr`` (``1``, ``Decimal('1.0')`` and ``1.0`` are
equal but not the same statistic), and both reservoirs slot by slot —
the column samples through their histograms, the row sample directly.
"""

import datetime
import random
from decimal import Decimal

from hypothesis import given, settings, strategies as st

from repro.catalog import ColumnStats, Histogram, TableStats
from repro.catalog.stats import _numeric
from repro.sqltypes import NULL, is_null, sort_key

SAMPLE_SIZE = TableStats.SAMPLE_SIZE


def reference_collect(column_names, rows, page_rows=64):
    """``TableStats.collect`` as a row loop: per value, NULL test,
    distinct-set insert, ``sort_key`` comparisons against the running
    extremes, and a reservoir step; one RNG serves every column."""
    distinct = {name: set() for name in column_names}
    samples = {name: [] for name in column_names}
    reservoir_rng = random.Random(0xC0FFEE)
    row_rng = random.Random(0xBEEF)
    row_sample = []
    stats = TableStats(
        columns={name: ColumnStats() for name in column_names},
        sample_columns=tuple(column_names),
    )
    for row in rows:
        stats.row_count += 1
        if len(row_sample) < SAMPLE_SIZE:
            row_sample.append(tuple(row))
        else:
            slot = row_rng.randrange(stats.row_count)
            if slot < SAMPLE_SIZE:
                row_sample[slot] = tuple(row)
        for name, value in zip(column_names, row):
            column = stats.columns[name]
            if is_null(value):
                column.null_count += 1
                continue
            distinct[name].add(value)
            if column.low is None or sort_key(value) < sort_key(column.low):
                column.low = value
            if column.high is None or sort_key(value) > sort_key(column.high):
                column.high = value
            sample = samples[name]
            if len(sample) < SAMPLE_SIZE:
                sample.append(value)
            else:
                slot = reservoir_rng.randrange(stats.row_count)
                if slot < SAMPLE_SIZE:
                    sample[slot] = value
    for name in column_names:
        stats.columns[name].ndv = max(1, len(distinct[name]))
        if samples[name]:
            stats.columns[name].histogram = reference_histogram(samples[name])
    stats.pages = max(1, (stats.row_count + page_rows - 1) // page_rows)
    stats.sample_rows = tuple(row_sample)
    return stats


def reference_histogram(values):
    """``Histogram.from_values`` with every value imaged by its own
    ``_numeric`` call; the buckets are cut from the images."""
    try:
        images = [_numeric(value) for value in values]
    except TypeError:
        return None
    return Histogram.from_values(images, TableStats.HISTOGRAM_BUCKETS)


def typed(value):
    return type(value).__name__, repr(value)


def fields(stats):
    """Every statistic ``stats`` carries, in a form that tells apart
    equal values of different types or spellings."""
    return {
        "row_count": stats.row_count,
        "pages": stats.pages,
        "sample_columns": tuple(stats.sample_columns),
        "sample_rows": [
            [typed(value) for value in row] for row in stats.sample_rows
        ],
        "columns": {
            name: (
                column.ndv,
                column.null_count,
                typed(column.low),
                typed(column.high),
                None
                if column.histogram is None
                else column.histogram.boundaries,
            )
            for name, column in stats.columns.items()
        },
    }


# ----------------------------------------------------------------------
# Generated tables
# ----------------------------------------------------------------------

_EPOCH = datetime.date(1995, 1, 1)


def _mixed_number(rng):
    """Equal sort keys in different types and spellings."""
    number = rng.randint(-3, 3)
    return rng.choice(
        [number, Decimal(number), Decimal(f"{number}.0"), float(number)]
    )


VALUE_KINDS = {
    "int": lambda rng: rng.randint(-50, 50),
    "decimal": lambda rng: Decimal(rng.randint(-20, 20)).scaleb(
        -rng.randint(0, 2)
    ),
    "float": lambda rng: rng.randint(-40, 40) / 4,
    "bool": lambda rng: rng.random() < 0.5,
    "str": lambda rng: "".join(rng.choices("abc", k=rng.randint(0, 3))),
    "date": lambda rng: _EPOCH + datetime.timedelta(rng.randint(0, 60)),
    "mixed_numeric": _mixed_number,
    "mixed_bands": lambda rng: rng.choice(
        [rng.randint(0, 3), "x", _EPOCH, True, Decimal("1.0")]
    ),
}

column_strategy = st.tuples(
    st.sampled_from(sorted(VALUE_KINDS)),
    # NULL share: none, some, most, all.
    st.sampled_from([0.0, 0.1, 0.6, 1.0]),
    st.sampled_from([None, NULL]),
)


def generate_rows(seed, row_count, columns):
    rng = random.Random(seed)
    rows = []
    for _ in range(row_count):
        row = []
        for kind, null_share, null in columns:
            if null_share and rng.random() < null_share:
                row.append(null if rng.random() < 0.7 else None)
            else:
                row.append(VALUE_KINDS[kind](rng))
        rows.append(tuple(row))
    return rows


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    row_count=st.sampled_from(
        [0, 1, 7, SAMPLE_SIZE - 1, SAMPLE_SIZE, SAMPLE_SIZE + 1]
        + [3 * SAMPLE_SIZE + 17]
    ),
    columns=st.lists(column_strategy, min_size=1, max_size=5),
    page_rows=st.sampled_from([1, 64]),
)
def test_collect_equals_the_row_loop(seed, row_count, columns, page_rows):
    rows = generate_rows(seed, row_count, columns)
    names = [f"c{position}" for position in range(len(columns))]
    assert fields(TableStats.collect(names, iter(rows), page_rows)) == fields(
        reference_collect(names, rows, page_rows)
    )


def test_staggered_fill_points_interleave_the_draws():
    """Columns whose samples fill at different rows share one RNG: the
    draws must interleave row by row, not column by column."""
    columns = [
        ("int", 0.0, None),
        ("decimal", 0.1, NULL),
        ("str", 0.6, None),
        ("mixed_numeric", 1.0, None),
        ("date", 0.0, None),
    ]
    rows = generate_rows(3, 3 * SAMPLE_SIZE + 17, columns)
    names = ["a", "b", "c", "d", "e"]
    collected = TableStats.collect(names, rows)
    assert fields(collected) == fields(reference_collect(names, rows))
    assert collected.columns["d"].null_count == len(rows)
    assert collected.columns["d"].histogram is None


def test_first_extreme_in_scan_order_wins():
    rows = [(Decimal("1.0"),), (1,), (1.0,), (Decimal("1.00"),)]
    stats = TableStats.collect(["a"], rows)
    assert typed(stats.columns["a"].low) == typed(Decimal("1.0"))
    assert typed(stats.columns["a"].high) == typed(Decimal("1.0"))
    rows = [(Decimal("2.0"),), (Decimal("2.00"),), (Decimal("1.0"),),
            (Decimal("1.00"),)]
    stats = TableStats.collect(["a"], rows)
    assert repr(stats.columns["a"].low) == "Decimal('1.0')"
    assert repr(stats.columns["a"].high) == "Decimal('2.0')"


# ----------------------------------------------------------------------
# The TPC-D tables
# ----------------------------------------------------------------------


def test_tpcd_tables_equal_the_row_loop(tpcd_db):
    for schema in tpcd_db.catalog.tables():
        store = tpcd_db.store(schema.name)
        rows = [row for _rid, row in store.heap.scan()]
        expected = fields(
            reference_collect(schema.column_names, rows, store.rows_per_page)
        )
        # The statistics the load left behind, and a fresh collection.
        assert fields(schema.stats) == expected, schema.name
        assert (
            fields(
                TableStats.collect(
                    schema.column_names, rows, store.rows_per_page
                )
            )
            == expected
        ), schema.name
