"""Table and column statistics for cardinality estimation.

The cost model uses the classic System-R style estimates: row counts,
per-column distinct-value counts (NDV), min/max for range selectivity,
and null counts. Statistics are gathered by scanning loaded data
(:meth:`TableStats.collect`) or supplied synthetically by generators.
"""

from __future__ import annotations

import bisect
import datetime
import decimal
import random
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.sqltypes import NULL, SqlNull, sort_key

_NULL_TYPES = (type(None), SqlNull)
# Exact types whose own ``<`` is their sort-key order: a column holding
# one of them alone takes bare ``min`` / ``max``.
_SELF_ORDERED = frozenset({int, str, decimal.Decimal, datetime.date})
# Exact types whose :func:`_numeric` image is ``float(value)``.
_FLOAT_IMAGED = frozenset({int, float, decimal.Decimal})


class Histogram:
    """Equi-depth histogram over one column's sort-key images.

    ``boundaries`` are bucket upper edges over a sorted sample: bucket
    ``i`` holds the values in ``(boundaries[i-1], boundaries[i]]`` and
    each bucket holds ~1/buckets of the rows. Range selectivity
    interpolates linearly within the boundary bucket, which handles
    skew far better than the min/max uniform assumption.
    """

    __slots__ = ("boundaries",)

    def __init__(self, boundaries: Sequence[float]):
        self.boundaries = list(boundaries)

    @classmethod
    def from_values(
        cls, values: Sequence[Any], buckets: int = 32
    ) -> Optional["Histogram"]:
        if _FLOAT_IMAGED.issuperset(map(type, values)):
            numeric = list(map(float, values))
        else:
            # Each distinct string is imaged once. Only ``str`` keys
            # the memo: equal values of other types (``True`` and
            # ``Decimal('1.0')``, ``-0.0`` and ``0.0``) have their own
            # images.
            images = {
                text: _numeric(text)
                for text in {value for value in values if type(value) is str}
            }
            try:
                numeric = [
                    images[value] if type(value) is str else _numeric(value)
                    for value in values
                ]
            except TypeError:
                return None
        if not numeric:
            return None
        numeric.sort()
        count = len(numeric)
        buckets = max(1, min(buckets, count))
        boundaries = [numeric[0]]
        for bucket in range(1, buckets + 1):
            index = min(count - 1, (bucket * count) // buckets - 1)
            boundaries.append(numeric[max(0, index)])
        return cls(boundaries)

    def fraction_below(self, value: Any) -> float:
        """Estimated fraction of rows with column value <= ``value``."""
        try:
            target = _numeric(value)
        except TypeError:
            return 0.5
        edges = self.boundaries
        if target < edges[0]:
            return 0.0
        if target >= edges[-1]:
            return 1.0
        buckets = len(edges) - 1
        # Index just past the last edge <= target: every bucket whose
        # upper edge is <= target is fully counted (duplicate edges mean
        # several buckets hold the same heavy value).
        position = bisect.bisect_right(edges, target)
        full_buckets = max(0, position - 1)
        lower, upper = edges[position - 1], edges[position]
        within = (
            (target - lower) / (upper - lower) if upper > lower else 0.0
        )
        return min(1.0, (full_buckets + within) / buckets)

    def selectivity_between(self, low: Any, high: Any) -> float:
        """Fraction of rows in [low, high]; None bounds are open ends."""
        below_high = 1.0 if high is None else self.fraction_below(high)
        below_low = 0.0 if low is None else self.fraction_below(low)
        return min(1.0, max(0.0, below_high - below_low))


@dataclass
class ColumnStats:
    """Statistics for a single column."""

    ndv: int = 1
    low: Any = None
    high: Any = None
    null_count: int = 0
    histogram: Optional[Histogram] = None

    def not_null_fraction(self, row_count: int) -> float:
        """Fraction of rows where this column is NOT NULL."""
        if row_count <= 0 or self.null_count <= 0:
            return 1.0
        return max(0.0, 1.0 - self.null_count / row_count)

    def selectivity_equal(self, row_count: int) -> float:
        """Estimated selectivity of ``col = constant``.

        ``col = const`` can never match a NULL, so the uniform 1/NDV
        estimate over non-null values is scaled by the non-null
        fraction of the table.
        """
        if self.ndv <= 0:
            return 1.0
        return self.not_null_fraction(row_count) / self.ndv

    def selectivity_range(
        self, low: Any, high: Any, row_count: Optional[int] = None
    ) -> float:
        """Estimated selectivity of a (half-)open range over this column.

        Prefers the equi-depth histogram when one was collected; falls
        back to linear interpolation between min and max, and finally to
        1/3 (the System R default) when nothing is usable. The histogram
        and min/max only see non-null values, so when ``row_count`` is
        supplied the fraction is discounted by the non-null share —
        NULLs satisfy no range predicate.
        """
        if self.histogram is not None:
            fraction = self.histogram.selectivity_between(low, high)
            if row_count is not None:
                fraction *= self.not_null_fraction(row_count)
            return fraction
        default = 1.0 / 3.0
        if self.low is None or self.high is None:
            return default
        try:
            span = _numeric(self.high) - _numeric(self.low)
        except TypeError:
            return default
        if span <= 0:
            return default
        start = _numeric(self.low if low is None else low)
        end = _numeric(self.high if high is None else high)
        fraction = min(1.0, max(0.0, (end - start) / span))
        if row_count is not None:
            fraction *= self.not_null_fraction(row_count)
        return fraction


def _row_of_nth_value(column: Sequence[Any], n: int) -> int:
    """The 1-based row holding ``column``'s ``n``-th non-NULL value
    (which must exist)."""
    seen = 0
    for number, value in enumerate(column, 1):
        if value is not None and value is not NULL:
            seen += 1
            if seen == n:
                return number
    raise ValueError(f"fewer than {n} non-NULL values")


def bounded_draw(rng: random.Random) -> Callable[[int], int]:
    """``below(n)`` over ``rng``: the value ``Random.randrange`` returns
    for ``n`` (and the index ``Random.choice`` picks from ``n`` items),
    drawn the same way — ``getrandbits(n.bit_length())`` until it is
    below ``n`` — without ``randrange``'s argument checks. Every bounded
    draw of a build (the statistics reservoirs, the TPC-D generator)
    goes through it; ``tests/catalog/test_bounded_draw.py`` holds it to
    ``randrange``, ``randint`` and ``choice`` on the running
    interpreter.
    """
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        width = n.bit_length()
        value = getrandbits(width)
        while value >= n:
            value = getrandbits(width)
        return value

    return below


def _draw_column_samples(
    rows: Sequence[Sequence[Any]],
    samples: List[List[Any]],
    full_after: Sequence[Optional[int]],
    nullable: Sequence[bool],
    size: int,
) -> None:
    """Run the per-column reservoir draws in row-major order.

    One RNG serves every column, so the draw order is the row loop's:
    rows are walked in segments between the points where some column's
    sample fills, and within a segment each row draws once per full
    column holding a non-NULL value, in column order. Only a column
    whose census held a NULL (``nullable``) tests its values for one; a
    segment with no such full column runs without the test.
    """
    below = bounded_draw(random.Random(0xC0FFEE))
    edges = sorted({filled for filled in full_after if filled is not None})
    for index, start in enumerate(edges):
        stop = edges[index + 1] if index + 1 < len(edges) else len(rows)
        full = [
            (position, samples[position], nullable[position])
            for position, filled in enumerate(full_after)
            if filled is not None and filled <= start
        ]
        numbered = enumerate(islice(rows, start, stop), start + 1)
        if not any(nulls for _position, _sample, nulls in full):
            plain = [(position, sample) for position, sample, _ in full]
            for number, row in numbered:
                for position, sample in plain:
                    slot = below(number)
                    if slot < size:
                        sample[slot] = row[position]
            continue
        for number, row in numbered:
            for position, sample, nulls in full:
                value = row[position]
                if nulls and (value is None or value is NULL):
                    continue
                slot = below(number)
                if slot < size:
                    sample[slot] = value


def _numeric(value: Any) -> float:
    """Map a value onto the real line for range-selectivity arithmetic."""
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, decimal.Decimal):
        return float(value)
    if isinstance(value, datetime.date):
        return float(value.toordinal())
    if isinstance(value, str):
        # Crude but monotone: first characters as a base-256 fraction.
        total = 0.0
        for index, char in enumerate(value[:8]):
            total += ord(char) / (256.0 ** (index + 1))
        return total
    raise TypeError(f"no numeric image for {value!r}")


@dataclass
class TableStats:
    """Statistics for a whole table."""

    row_count: int = 0
    columns: Dict[str, ColumnStats] = field(default_factory=dict)
    pages: int = 1
    # Row-level reservoir sample (whole tuples, in ``sample_columns``
    # order): the basis for *joint* NDV estimation over column groups,
    # which per-column NDVs cannot provide when columns correlate.
    sample_columns: Sequence[str] = ()
    sample_rows: Sequence[Sequence[Any]] = ()
    # column tuple -> sample-distinct estimate, before the NDV-product
    # and row-count caps (those read fields that may be updated).
    _sample_distinct: Dict[tuple, float] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    SAMPLE_SIZE = 2000
    HISTOGRAM_BUCKETS = 32

    @classmethod
    def collect(
        cls,
        column_names: Sequence[str],
        rows: Iterable[Sequence[Any]],
        page_rows: int = 64,
    ) -> "TableStats":
        """Exact NDV / null count / min / max per column, an equi-depth
        histogram over a reservoir sample per column, and a reservoir
        sample of whole rows.

        Works a column at a time: each column is read once through its
        type census, and only one column list and one distinct set are
        alive at a time. ``low`` / ``high`` are the first extremes in
        scan order under :func:`sort_key`. The reservoirs draw as a row
        loop calling ``randrange`` would, through :func:`bounded_draw`:
        column ``c`` of row ``r`` (1-based) draws ``below(r)`` from the
        shared column RNG when its value is not NULL and ``c``'s sample
        already holds ``SAMPLE_SIZE`` values, row by row and, within a
        row, in column order; each row past ``SAMPLE_SIZE`` draws
        ``below(r)`` from the row-sample RNG.
        """
        rows = list(rows)
        size = cls.SAMPLE_SIZE
        row_count = len(rows)
        stats = cls(
            row_count=row_count,
            pages=max(1, (row_count + page_rows - 1) // page_rows),
            sample_columns=tuple(column_names),
        )
        samples: List[List[Any]] = []
        # Per column, the row count after which its sample is full and
        # every further non-NULL value draws; None when it never fills.
        full_after: List[Optional[int]] = []
        nullable: List[bool] = []
        for position, name in enumerate(column_names):
            column = list(map(itemgetter(position), rows))
            kinds = set(map(type, column))
            values = column
            filled: Optional[int] = size if row_count > size else None
            nullable.append(not kinds.isdisjoint(_NULL_TYPES))
            if nullable[-1]:
                kinds.difference_update(_NULL_TYPES)
                values = [
                    value
                    for value in column
                    if value is not None and value is not NULL
                ]
                filled = (
                    _row_of_nth_value(column, size)
                    if len(values) > size
                    else None
                )
            column_stats = ColumnStats(
                ndv=max(1, len(set(values))),
                null_count=row_count - len(values),
            )
            if values:
                if len(kinds) == 1 and kinds <= _SELF_ORDERED:
                    column_stats.low = min(values)
                    column_stats.high = max(values)
                else:
                    column_stats.low = min(values, key=sort_key)
                    column_stats.high = max(values, key=sort_key)
            stats.columns[name] = column_stats
            samples.append(values[:size])
            full_after.append(filled)
        _draw_column_samples(rows, samples, full_after, nullable, size)
        for name, sample in zip(column_names, samples):
            if sample:
                stats.columns[name].histogram = Histogram.from_values(
                    sample, cls.HISTOGRAM_BUCKETS
                )
        row_sample: List[Tuple[Any, ...]] = [
            tuple(row) for row in rows[:size]
        ]
        below = bounded_draw(random.Random(0xBEEF))
        for number, row in enumerate(islice(rows, size, None), size + 1):
            slot = below(number)
            if slot < size:
                row_sample[slot] = tuple(row)
        stats.sample_rows = tuple(row_sample)
        return stats

    def joint_ndv(self, column_names: Sequence[str]) -> Optional[float]:
        """Estimated distinct count of the *tuple* of ``column_names``.

        Counts distinct combinations in the row sample; when the sample
        is the whole table the count is exact, otherwise it scales up
        linearly. Either way the estimate is capped by the per-column
        NDV product (which is itself an upper bound) and the row count,
        so it can only tighten the naive independence estimate —
        correlated prefixes (e.g. nation -> region) stop multiplying.
        Returns ``None`` when no sample exists or a column is unknown.
        """
        if not self.sample_rows or not column_names:
            return None
        columns = tuple(column_names)
        estimate = self._sample_distinct.get(columns)
        if estimate is None:
            try:
                positions = [self.sample_columns.index(name) for name in columns]
            except ValueError:
                return None
            estimate = self._count_sample_distinct(positions)
            self._sample_distinct[columns] = estimate
        cap = 1.0
        for name in column_names:
            cap *= float(max(1, self.column(name).ndv))
        return max(1.0, min(estimate, cap, float(max(1, self.row_count))))

    def _count_sample_distinct(self, positions: Sequence[int]) -> float:
        """Distinct ``positions``-tuples in the row sample, scaled up."""
        from collections import Counter

        frequency = Counter(
            tuple(row[position] for position in positions)
            for row in self.sample_rows
        )
        distinct = len(frequency)
        if len(self.sample_rows) >= self.row_count:
            return float(distinct)
        # Chao's estimator: singletons signal unseen combinations,
        # repeated combinations signal a saturated domain. Linear
        # scale-up would turn 100 values seen 20x each into "there
        # must be more"; this does not.
        singletons = sum(1 for count in frequency.values() if count == 1)
        doubletons = sum(1 for count in frequency.values() if count == 2)
        return distinct + (singletons * singletons) / (2.0 * max(1, doubletons))

    def column(self, name: str) -> ColumnStats:
        return self.columns.get(name, ColumnStats(ndv=max(1, self.row_count)))
