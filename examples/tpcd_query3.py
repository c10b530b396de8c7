"""The paper's headline experiment: TPC-D Query 3, end to end.

Builds a synthetic TPC-D database, plans and runs Query 3 with order
optimization enabled (Figure 7's plan) and disabled (Figure 8's plan),
and prints a Table-1-style comparison.

Run:  python examples/tpcd_query3.py [scale_factor]
      (default scale factor 0.01 ~ 15k orders / 60k lineitems)
"""

import sys
import time

from repro import OptimizerConfig
from repro.api import execute, plan_query
from repro.tpcd import QUERY_3, build_tpcd_database


def main() -> None:
    scale_factor = float(sys.argv[1]) if len(sys.argv) > 1 else 0.01
    print(f"building TPC-D database at scale factor {scale_factor}...")
    started = time.time()
    database = build_tpcd_database(
        scale_factor=scale_factor, buffer_pool_pages=1024
    )
    print(
        f"  done in {time.time() - started:.1f}s: "
        f"{database.store('orders').row_count():,} orders, "
        f"{database.store('lineitem').row_count():,} lineitems"
    )
    print()
    print(QUERY_3.strip())

    results = {}
    for label, order_optimization in (
        ("production (order optimization ON)", True),
        ("disabled  (order optimization OFF)", False),
    ):
        config = OptimizerConfig.db2_faithful(order_optimization)
        plan = plan_query(database, QUERY_3, config=config)
        print()
        print("=" * 72)
        print(label)
        print("=" * 72)
        print(plan.explain())
        runs = [execute(database, plan, cold_cache=True) for _ in range(3)]
        wall = sum(r.elapsed_seconds for r in runs) / len(runs)
        sim = sum(r.simulated_elapsed_ms for r in runs) / len(runs)
        print(
            f"\n  rows: {len(runs[-1].rows)}   wall: {wall * 1000:.0f} ms   "
            f"simulated (I/O model): {sim:.0f} ms   "
            f"I/O: {runs[-1].io_stats}"
        )
        results[label] = (wall, sim, runs[-1].rows)

    (on_wall, on_sim, on_rows), (off_wall, off_sim, off_rows) = results.values()
    assert on_rows == off_rows, "both plans must return identical answers"
    print()
    print("=" * 72)
    print("Table 1 (paper: 192 s vs 393 s on 1GB TPC-D, ratio 2.04)")
    print("=" * 72)
    print(f"  wall-clock ratio (disabled / production): {off_wall / on_wall:.2f}")
    print(f"  simulated  ratio (disabled / production): {off_sim / on_sim:.2f}")
    print("  top 3 rows:", on_rows[:3])


if __name__ == "__main__":
    main()
