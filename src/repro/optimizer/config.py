"""Optimizer configuration and instrumentation counters."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class OptimizerConfig:
    """Feature switches for order optimization and planning.

    ``order_optimization`` is the master switch matching the paper's
    Section 8 experiment: with it off, order tests are naive column-list
    comparisons, interesting orders are neither reduced nor combined nor
    pushed down, and GROUP BY demands exactly its written column order.

    The finer-grained switches support the ablation benchmarks; they are
    only consulted when ``order_optimization`` is on.
    """

    order_optimization: bool = True
    enable_reduction: bool = True
    enable_sort_ahead: bool = True
    enable_cover: bool = True
    enable_general_orders: bool = True
    # Order dependencies (beyond the paper; Szlichta et al.): harvest
    # X |-> Y facts from monotonic derived expressions and consult them
    # in the order algebra. Gated here so ``disabled()`` stays the
    # honest 1996 baseline — the core algebra itself is config-free and
    # simply sees an empty ODSet when harvesting is off.
    use_order_dependencies: bool = True
    # Prefix-aware partial sort (beyond the paper): when the delivered
    # order already satisfies a proper prefix of a sort target, enforce
    # the rest with a segmented per-group sort instead of a full
    # external sort, and steer merge-join key sequences toward reusing
    # delivered prefixes (shared sort segments). Off under
    # ``disabled()`` via the master switch.
    enable_partial_sort: bool = True
    # Partitioned storage (beyond the paper): consider partition-pruned
    # scans and order-preserving merge exchanges over per-partition
    # local-index scans — an order delivered without a sort. Off under
    # ``disabled()`` via the master switch and off in
    # ``db2_faithful()`` (1996 DB2 had no partitioned repertoire
    # here). With the switch off, partitioned tables still execute —
    # the planner just scans them as one sequential stream.
    enable_partitioning: bool = True

    enable_hash_join: bool = True
    enable_index_nlj: bool = True
    enable_hash_group_by: bool = True

    def effective(self, feature: str) -> bool:
        """A fine-grained switch, gated by the master switch."""
        if not self.order_optimization:
            return False
        return getattr(self, feature)

    @classmethod
    def disabled(cls) -> "OptimizerConfig":
        """The paper's order-optimization-disabled build."""
        return cls(order_optimization=False)

    @classmethod
    def db2_faithful(
        cls, order_optimization: bool = True
    ) -> "OptimizerConfig":
        """DB2/CS-1996 operator repertoire, either build of Section 8.

        The paper's plans (Figures 7 and 8) contain only sort/merge/NLJ
        operators: DB2/CS had no hash join or hash aggregation at the
        time, no segmented-sort operator (keeping it off also keeps the
        figure/table plan shapes — full sorts — stable) and no
        partitioned repertoire, so the faithful comparison disables
        ours. ``python -m repro.bench ablation_hash`` quantifies what
        hash operators change.
        """
        return cls(
            order_optimization=order_optimization,
            enable_hash_join=False,
            enable_hash_group_by=False,
            enable_partial_sort=False,
            enable_partitioning=False,
        )


@dataclass
class PlannerStats:
    """Counters for the enumeration-complexity experiment (Section 5.2)."""

    # Candidates priced, and how many of them got a PlanNode (join
    # candidates pruned on cost and order alone are never built).
    plans_generated: int = 0
    plans_built: int = 0
    plans_pruned: int = 0
    subsets_expanded: int = 0
    sort_ahead_plans: int = 0

    def reset(self) -> None:
        self.plans_generated = 0
        self.plans_built = 0
        self.plans_pruned = 0
        self.subsets_expanded = 0
        self.sort_ahead_plans = 0
