"""The cost model: I/O + CPU estimates per physical operator.

Calibrated against the storage layer's :class:`IoStats` charge rates so
that estimated I/O time and simulated execution I/O time live on the
same scale. The decisive asymmetry for this paper: random page accesses
cost ~20x a sequential (prefetched) access, which is exactly why an
*ordered* nested-loop join — probes arriving in index order — beats an
unordered one (Section 8.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.storage.buffer import SORT_MEMORY_ROWS, IoStats


@dataclass(frozen=True)
class Cost:
    """An additive (io_ms, cpu_ms) cost pair."""

    io_ms: float = 0.0
    cpu_ms: float = 0.0

    @property
    def total_ms(self) -> float:
        return self.io_ms + self.cpu_ms

    def __add__(self, other: "Cost") -> "Cost":
        return Cost(self.io_ms + other.io_ms, self.cpu_ms + other.cpu_ms)

    def scaled(self, factor: float) -> "Cost":
        return Cost(self.io_ms * factor, self.cpu_ms * factor)

    def __lt__(self, other: "Cost") -> bool:
        return self.total_ms < other.total_ms

    def __le__(self, other: "Cost") -> bool:
        return self.total_ms <= other.total_ms

    def __str__(self) -> str:
        return f"{self.total_ms:.2f}ms (io {self.io_ms:.2f} + cpu {self.cpu_ms:.2f})"


ZERO_COST = Cost()


class CostModel:
    """Estimates operator costs from cardinalities and physical layout."""

    # Charge rates; I/O rates mirror IoStats so estimate and simulation
    # are commensurable.
    SEQ_PAGE_MS = IoStats.SEQUENTIAL_MS
    RANDOM_PAGE_MS = IoStats.RANDOM_MS
    CPU_ROW_MS = 0.002
    CPU_COMPARE_MS = 0.0008
    CPU_HASH_MS = 0.0015

    def __init__(self, sort_memory_rows: int = SORT_MEMORY_ROWS):
        self.sort_memory_rows = sort_memory_rows

    # ------------------------------------------------------------------
    # Access paths
    # ------------------------------------------------------------------

    def table_scan(self, pages: int, rows: float) -> Cost:
        return Cost(pages * self.SEQ_PAGE_MS, rows * self.CPU_ROW_MS)

    def index_scan(
        self,
        table_pages: int,
        table_rows: float,
        matched_rows: float,
        tree_height: int,
        clustered: bool,
        fetch_rows: bool = True,
    ) -> Cost:
        """Range/full scan through an index, optionally fetching rows.

        Unclustered fetches are random page reads per row (bounded by the
        table's page count per distinct key region — we keep the simple
        per-row bound, which is the classical pessimistic estimate).
        """
        descent = tree_height * self.RANDOM_PAGE_MS
        leaf_fraction = matched_rows / max(1.0, table_rows)
        leaf_pages = max(1.0, leaf_fraction * max(1, table_pages))
        io = descent + leaf_pages * self.SEQ_PAGE_MS
        if fetch_rows:
            if clustered:
                io += leaf_fraction * table_pages * self.SEQ_PAGE_MS
            else:
                io += matched_rows * self.RANDOM_PAGE_MS
        return Cost(io, matched_rows * self.CPU_ROW_MS)

    def index_nlj(
        self,
        outer_rows: float,
        matches_per_probe: float,
        table_pages: int,
        table_rows: float,
        tree_height: int,
        ordered: bool,
        clustered: bool,
        output_rows: float,
    ) -> Cost:
        """Whole-join cost of nested loops probing an inner index.

        The paper's pivotal asymmetry (Section 8.1): when the outer
        stream is ordered on the probe columns ("ordered nested-loop
        join"), successive probes walk the leaf chain monotonically —
        prefetching turns the descent I/O into one sequential pass; if
        the index is also clustered, the data-page fetches become
        sequential too. Unordered probes pay a random descent plus
        random fetches per probe.
        """
        outer_rows = max(1.0, outer_rows)
        matched_rows = outer_rows * max(0.0, matches_per_probe)
        cpu = (
            outer_rows * self.CPU_COMPARE_MS
            + matched_rows * self.CPU_ROW_MS
            + output_rows * self.CPU_ROW_MS
        )
        coverage = min(1.0, matched_rows / max(1.0, table_rows))
        covered_pages = coverage * max(1, table_pages)
        if ordered:
            # Leaf chain: one sequential pass over the covered fraction.
            io = tree_height * self.RANDOM_PAGE_MS
            io += covered_pages * self.SEQ_PAGE_MS
            if clustered:
                io += covered_pages * self.SEQ_PAGE_MS
            else:
                io += matched_rows * self.RANDOM_PAGE_MS
        else:
            per_probe = self.RANDOM_PAGE_MS * (
                1.0 + 0.1 * max(0, tree_height - 1)
            )
            io = outer_rows * per_probe + matched_rows * self.RANDOM_PAGE_MS
        return Cost(io, cpu)

    # ------------------------------------------------------------------
    # Sorting
    # ------------------------------------------------------------------

    def sort(
        self,
        rows: float,
        sort_columns: int,
        row_pages: float,
        groups: Optional[float] = None,
        limit: Optional[int] = None,
    ) -> Cost:
        """The one sort formula: a segmented sort, as ``SortOp`` runs it.

        The input arrives in ``groups`` runs of equal prefix values
        (``None``: no sorted prefix, so one run and no boundary checks),
        and each run is sorted on the remaining ``sort_columns`` keys:
        ``n * log(n / groups)`` comparisons, plus one boundary compare
        per row under a prefix. Fewer sort columns means cheaper
        comparisons — the payoff of the paper's minimal-sort-column
        reduction.

        Under a ``limit`` (FETCH FIRST n) groups stream out in order, so
        only ``ceil(limit / group_rows)`` groups are consumed; each keeps
        a bounded buffer of ``min(group_rows, limit)`` rows, which caps
        the comparison depth, pays a quarter of the per-row move and
        never spills. Without one, a group larger than sort memory
        spills.
        """
        rows = max(1.0, rows)
        group_rows = rows
        if groups is not None:
            group_rows = rows / max(1.0, min(groups, rows))
        consumed, depth, move = rows, group_rows, 1.0
        io = 0.0
        if limit is not None:
            needed_groups = math.ceil(max(1, limit) / group_rows)
            consumed = min(rows, needed_groups * group_rows)
            depth, move = min(group_rows, limit), 0.25
        elif group_rows > self.sort_memory_rows:
            passes = max(
                1,
                math.ceil(
                    math.log(group_rows / self.sort_memory_rows, 8) + 1e-9
                ),
            )
            io = 2.0 * passes * max(1.0, row_pages) * self.SEQ_PAGE_MS
        compare = (
            consumed
            * math.log2(depth + 1.0)
            * self.CPU_COMPARE_MS
            * max(1, sort_columns)
        )
        if groups is not None:
            compare += consumed * self.CPU_COMPARE_MS
        return Cost(io, compare + consumed * self.CPU_ROW_MS * move)

    # ------------------------------------------------------------------
    # Joins (costs beyond producing the inputs)
    # ------------------------------------------------------------------

    def merge_join(self, outer_rows: float, inner_rows: float, output_rows: float) -> Cost:
        cpu = (outer_rows + inner_rows) * self.CPU_COMPARE_MS
        cpu += output_rows * self.CPU_ROW_MS
        return Cost(0.0, cpu)

    def hash_join(
        self, build_rows: float, probe_rows: float, output_rows: float, build_pages: float
    ) -> Cost:
        cpu = build_rows * self.CPU_HASH_MS + probe_rows * self.CPU_HASH_MS
        cpu += output_rows * self.CPU_ROW_MS
        io = 0.0
        if build_rows > self.sort_memory_rows:
            io = 2.0 * max(1.0, build_pages) * self.SEQ_PAGE_MS
        return Cost(io, cpu)

    def nested_loop_join(self, outer_rows: float, inner_cost: Cost, output_rows: float) -> Cost:
        """Outer cardinality times the per-iteration inner cost."""
        repeated = inner_cost.scaled(max(0.0, outer_rows))
        return Cost(repeated.io_ms, repeated.cpu_ms + output_rows * self.CPU_ROW_MS)

    # ------------------------------------------------------------------
    # Aggregation
    # ------------------------------------------------------------------

    def group_by_sorted(self, input_rows: float, output_rows: float) -> Cost:
        return Cost(0.0, input_rows * self.CPU_COMPARE_MS + output_rows * self.CPU_ROW_MS)

    def group_by_hash(
        self, input_rows: float, output_rows: float, output_pages: float
    ) -> Cost:
        io = 0.0
        if output_rows > self.sort_memory_rows:
            io = 2.0 * max(1.0, output_pages) * self.SEQ_PAGE_MS
        return Cost(
            io,
            input_rows * self.CPU_HASH_MS + output_rows * self.CPU_ROW_MS,
        )

    def filter_rows(self, rows: float) -> Cost:
        return Cost(0.0, rows * self.CPU_COMPARE_MS)

    def project_rows(self, rows: float) -> Cost:
        return Cost(0.0, rows * self.CPU_ROW_MS * 0.25)

    # ------------------------------------------------------------------
    # Merge exchange over per-partition ordered streams
    # ------------------------------------------------------------------

    # Per-row hand-off through the merge (decorate, heap entry, emit).
    # A statement runs on one thread, so the exchange's inputs cost
    # their plain sum — CPU and I/O alike — and this comes on top.
    EXCHANGE_ROW_MS = 0.0005

    def exchange_merge(self, rows: float, streams: int) -> Cost:
        """Order-preserving k-way merge: transfer plus a log2(k)-deep
        heap comparison per row."""
        rows = max(0.0, rows)
        depth = math.log2(max(2, streams))
        cpu = rows * (self.EXCHANGE_ROW_MS + depth * self.CPU_COMPARE_MS)
        return Cost(0.0, cpu)
