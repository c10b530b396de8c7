"""Cost model: the asymmetries order optimization exploits."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost import Cost, CostModel

ROWS = st.floats(min_value=0.0, max_value=1e7)
GROUPS = st.one_of(st.none(), st.floats(min_value=0.0, max_value=1e7))
COLUMNS = st.integers(min_value=0, max_value=6)
PAGES = st.floats(min_value=0.0, max_value=1e5)
LIMITS = st.integers(min_value=1, max_value=10**7)


class TestCost:
    def test_addition(self):
        total = Cost(1.0, 2.0) + Cost(3.0, 4.0)
        assert total.io_ms == 4.0 and total.cpu_ms == 6.0

    def test_comparison_on_total(self):
        assert Cost(1.0, 1.0) < Cost(3.0, 0.0)
        assert Cost(1.0, 1.0) <= Cost(2.0, 0.0)

    def test_scaled(self):
        assert Cost(2.0, 4.0).scaled(0.5) == Cost(1.0, 2.0)


class TestAccessCosts:
    def setup_method(self):
        self.model = CostModel()

    def test_table_scan_linear_in_pages(self):
        small = self.model.table_scan(10, 100)
        large = self.model.table_scan(100, 1000)
        assert large.total_ms > small.total_ms

    def test_unclustered_full_fetch_expensive(self):
        # Fetching every row via an unclustered index costs more than
        # scanning the table.
        scan = self.model.table_scan(100, 6400)
        index = self.model.index_scan(100, 6400, 6400, 3, clustered=False)
        assert index.total_ms > scan.total_ms

    def test_clustered_selective_scan_cheap(self):
        scan = self.model.table_scan(100, 6400)
        index = self.model.index_scan(100, 6400, 64, 3, clustered=True)
        assert index.total_ms < scan.total_ms


class TestSortCosts:
    def setup_method(self):
        self.model = CostModel(sort_memory_rows=1000)

    def test_fewer_columns_cheaper(self):
        """The payoff of minimal sort columns (§4.2)."""
        narrow = self.model.sort(10_000, 1, 100)
        wide = self.model.sort(10_000, 3, 100)
        assert narrow.total_ms < wide.total_ms

    def test_spill_beyond_memory(self):
        in_memory = self.model.sort(999, 1, 10)
        spilled = self.model.sort(100_000, 1, 1000)
        assert in_memory.io_ms == 0.0
        assert spilled.io_ms > 0.0

    def test_monotone_in_rows(self):
        assert (
            self.model.sort(1000, 1, 10).total_ms
            < self.model.sort(10_000, 1, 100).total_ms
        )

    def test_prefix_groups_cheaper_than_one_run(self):
        full = self.model.sort(10_000, 2, 100)
        partial = self.model.sort(10_000, 1, 100, groups=100)
        assert partial.total_ms < full.total_ms
        # Only a group larger than sort memory spills.
        assert self.model.sort(100_000, 1, 1000, groups=1000).io_ms == 0.0
        assert self.model.sort(100_000, 1, 1000, groups=10).io_ms > 0.0

    @settings(max_examples=200, deadline=None)
    @given(ROWS, COLUMNS, PAGES, GROUPS, LIMITS)
    def test_a_limit_never_raises_the_cost_and_never_spills(
        self, rows, columns, pages, groups, limit
    ):
        limited = self.model.sort(rows, columns, pages, groups, limit)
        unlimited = self.model.sort(rows, columns, pages, groups)
        assert limited.io_ms == 0.0
        assert limited.total_ms <= unlimited.total_ms

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=10**6),
        COLUMNS,
        PAGES,
        st.integers(min_value=0, max_value=10**7),
    )
    def test_a_limit_past_the_input_costs_what_the_input_size_costs(
        self, rows, columns, pages, extra
    ):
        # A bounded buffer never holds more than the input's rows, so
        # the comparison depth stops growing at ``rows``.
        assert self.model.sort(
            rows, columns, pages, limit=rows + extra
        ) == self.model.sort(rows, columns, pages, limit=rows)

    @settings(max_examples=200, deadline=None)
    @given(ROWS, COLUMNS, PAGES, st.one_of(st.none(), LIMITS))
    def test_one_group_adds_only_the_boundary_compares(
        self, rows, columns, pages, limit
    ):
        plain = self.model.sort(rows, columns, pages, limit=limit)
        one_group = self.model.sort(rows, columns, pages, 1, limit)
        assert one_group.io_ms == plain.io_ms
        assert one_group.cpu_ms == pytest.approx(
            plain.cpu_ms + max(1.0, rows) * CostModel.CPU_COMPARE_MS,
            rel=1e-12,
        )

    @settings(max_examples=200, deadline=None)
    @given(ROWS, ROWS, COLUMNS, PAGES, GROUPS)
    def test_monotone_in_rows_with_and_without_groups(
        self, rows, more, columns, pages, groups
    ):
        smaller, larger = sorted((rows, more))
        assert (
            self.model.sort(smaller, columns, pages, groups).total_ms
            <= self.model.sort(larger, columns, pages, groups).total_ms
        )


class TestOrderedNlj:
    """The Section 8.1 asymmetry: ordered clustered probes are cheap."""

    def setup_method(self):
        self.model = CostModel()

    def kwargs(self, **overrides):
        base = dict(
            outer_rows=5000.0,
            matches_per_probe=4.0,
            table_pages=800,
            table_rows=30_000.0,
            tree_height=3,
            output_rows=15_000.0,
        )
        base.update(overrides)
        return base

    def test_ordered_clustered_beats_unordered(self):
        ordered = self.model.index_nlj(
            **self.kwargs(), ordered=True, clustered=True
        )
        unordered = self.model.index_nlj(
            **self.kwargs(), ordered=False, clustered=True
        )
        assert ordered.io_ms * 5 < unordered.io_ms

    def test_ordered_unclustered_between(self):
        clustered = self.model.index_nlj(
            **self.kwargs(), ordered=True, clustered=True
        )
        unclustered = self.model.index_nlj(
            **self.kwargs(), ordered=True, clustered=False
        )
        unordered = self.model.index_nlj(
            **self.kwargs(), ordered=False, clustered=False
        )
        assert clustered.io_ms < unclustered.io_ms <= unordered.io_ms

    def test_cpu_includes_output(self):
        with_output = self.model.index_nlj(
            **self.kwargs(output_rows=50_000.0), ordered=True, clustered=True
        )
        without = self.model.index_nlj(
            **self.kwargs(output_rows=0.0), ordered=True, clustered=True
        )
        assert with_output.cpu_ms > without.cpu_ms


class TestJoinAndGroupCosts:
    def setup_method(self):
        self.model = CostModel(sort_memory_rows=1000)

    def test_merge_join_linear(self):
        small = self.model.merge_join(100, 100, 100)
        large = self.model.merge_join(10_000, 10_000, 10_000)
        assert large.total_ms > small.total_ms

    def test_hash_join_spills(self):
        resident = self.model.hash_join(500, 1000, 1000, 10)
        spilled = self.model.hash_join(50_000, 1000, 1000, 1000)
        assert resident.io_ms == 0.0
        assert spilled.io_ms > 0.0

    def test_sorted_group_by_cheaper_cpu_than_hash(self):
        sorted_cost = self.model.group_by_sorted(10_000, 100)
        hash_cost = self.model.group_by_hash(10_000, 100, 10)
        assert sorted_cost.total_ms < hash_cost.total_ms
