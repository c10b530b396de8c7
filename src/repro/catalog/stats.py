"""Table and column statistics for cardinality estimation.

The cost model uses the classic System-R style estimates: row counts,
per-column distinct-value counts (NDV), min/max for range selectivity,
and null counts. Statistics are gathered by scanning loaded data
(:meth:`TableStats.collect`) or supplied synthetically by generators.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Sequence

from repro.sqltypes import is_null, sort_key


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
        numeric = []
        for value in values:
            try:
                numeric.append(_numeric(value))
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


def _numeric(value: Any) -> float:
    """Map a value onto the real line for range-selectivity arithmetic."""
    import datetime
    import decimal

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
        """Scan ``rows`` once and compute exact NDV/min/max plus an
        equi-depth histogram over a reservoir sample per column."""
        import random

        distinct: Dict[str, set] = {name: set() for name in column_names}
        samples: Dict[str, List[Any]] = {name: [] for name in column_names}
        reservoir_rng = random.Random(0xC0FFEE)
        row_rng = random.Random(0xBEEF)
        row_sample: List[Tuple[Any, ...]] = []
        stats = cls(
            columns={name: ColumnStats() for name in column_names},
            sample_columns=tuple(column_names),
        )
        for row in rows:
            stats.row_count += 1
            if len(row_sample) < cls.SAMPLE_SIZE:
                row_sample.append(tuple(row))
            else:
                slot = row_rng.randrange(stats.row_count)
                if slot < cls.SAMPLE_SIZE:
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
                if len(sample) < cls.SAMPLE_SIZE:
                    sample.append(value)
                else:
                    slot = reservoir_rng.randrange(stats.row_count)
                    if slot < cls.SAMPLE_SIZE:
                        sample[slot] = value
        for name in column_names:
            stats.columns[name].ndv = max(1, len(distinct[name]))
            if samples[name]:
                stats.columns[name].histogram = Histogram.from_values(
                    samples[name], cls.HISTOGRAM_BUCKETS
                )
        stats.pages = max(1, (stats.row_count + page_rows - 1) // page_rows)
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
