"""The paper's experiments, one registered function per table/figure.

Every experiment prints the paper's numbers next to ours. Absolute
magnitudes differ (their testbed was a 1 GB TPC-D database on an
RS/6000; ours is a Python engine at a small scale factor) — the
reproduced quantity is the *shape*: which plan wins, which operators
appear, and roughly what the on/off ratio is.
"""

from __future__ import annotations

import datetime
import time
from typing import Dict, List, Tuple

from repro.catalog import Column, Index, TableSchema, hash_spec, range_spec
from repro.optimizer import OptimizerConfig
from repro.storage import Database
from repro.api import execute, plan_query, run_query
from repro.bench.harness import ExperimentReport, experiment
from repro.optimizer.plan import OpKind
from repro.sqltypes import INTEGER
from repro.tpcd import (
    QUERY_3,
    TpcdGenerator,
    build_tpcd_database,
    tpcd_indexes,
    tpcd_schema,
)

DEFAULT_SCALE = 0.02
DEFAULT_RUNS = 5


def db2_faithful_config(order_optimization: bool = True) -> OptimizerConfig:
    """DB2/CS-1996 operator repertoire: no hash join / hash aggregation.

    The paper's plans (Figures 7 and 8) contain only sort/merge/NLJ
    operators; DB2/CS had no hash-based alternatives at the time, so the
    faithful comparison disables ours. ``python -m repro.bench
    ablation_hash`` quantifies what hash operators change.
    """
    config = (
        OptimizerConfig() if order_optimization else OptimizerConfig.disabled()
    )
    config.enable_hash_join = False
    config.enable_hash_group_by = False
    # 1996 DB2 had no segmented-sort operator either; keeping it off
    # also keeps the figure/table plan shapes (full sorts) stable.
    config.enable_partial_sort = False
    # Nor a parallel/partitioned repertoire: no exchange operators.
    config.enable_partitioning = False
    return config


_TPCD_CACHE: Dict[float, Database] = {}


def tpcd_database(scale_factor: float) -> Database:
    """Cached TPC-D database per scale factor (builds take seconds)."""
    if scale_factor not in _TPCD_CACHE:
        _TPCD_CACHE[scale_factor] = build_tpcd_database(
            scale_factor=scale_factor, buffer_pool_pages=1024
        )
    return _TPCD_CACHE[scale_factor]


def _timed_runs(database: Database, sql: str, config, runs: int):
    """Execute ``runs`` times; return (mean wall s, mean simulated ms,
    last result)."""
    plan = plan_query(database, sql, config=config)
    walls: List[float] = []
    sims: List[float] = []
    result = None
    for _ in range(runs):
        result = execute(database, plan, cold_cache=True)
        walls.append(result.elapsed_seconds)
        sims.append(result.simulated_elapsed_ms)
    return (
        sum(walls) / len(walls),
        sum(sims) / len(sims),
        result,
    )


# ----------------------------------------------------------------------
# Table 1
# ----------------------------------------------------------------------


@experiment("table1", "Table 1: elapsed time for TPC-D Query 3")
def table1(
    scale_factor: float = DEFAULT_SCALE, runs: int = DEFAULT_RUNS
) -> ExperimentReport:
    report = ExperimentReport(
        "table1",
        "Elapsed time for Query 3, production vs order-opt-disabled "
        f"(SF {scale_factor}, {runs}-run average)",
        headers=(
            "metric",
            "Production (order opt ON)",
            "Disabled",
            "Ratio",
            "Paper ratio",
        ),
    )
    database = tpcd_database(scale_factor)
    on_wall, on_sim, on_result = _timed_runs(
        database, QUERY_3, db2_faithful_config(True), runs
    )
    off_wall, off_sim, off_result = _timed_runs(
        database, QUERY_3, db2_faithful_config(False), runs
    )
    report.add_row(
        "wall-clock (s)",
        f"{on_wall:.3f}",
        f"{off_wall:.3f}",
        f"{off_wall / on_wall:.2f}",
        "2.04",
    )
    report.add_row(
        "simulated elapsed (ms)",
        f"{on_sim:.0f}",
        f"{off_sim:.0f}",
        f"{off_sim / on_sim:.2f}",
        "2.04",
    )
    report.add_row(
        "optimizer estimate (ms)",
        f"{on_result.plan.cost.total_ms:.0f}",
        f"{off_result.plan.cost.total_ms:.0f}",
        f"{off_result.plan.cost.total_ms / on_result.plan.cost.total_ms:.2f}",
        "-",
    )
    report.add_row(
        "sorts in plan",
        on_result.plan.sort_count(),
        off_result.plan.sort_count(),
        "-",
        "-",
    )
    report.add_note(
        "paper: 192s production vs 393s disabled on 1GB TPC-D / RS-6000; "
        "we reproduce the ratio's direction and magnitude, not seconds"
    )
    report.data.update(
        on_wall=on_wall,
        off_wall=off_wall,
        on_sim=on_sim,
        off_sim=off_sim,
        wall_ratio=off_wall / on_wall,
        sim_ratio=off_sim / on_sim,
        est_ratio=(
            off_result.plan.cost.total_ms / on_result.plan.cost.total_ms
        ),
    )
    assert on_result.rows == off_result.rows
    return report


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------


def _figure1_database() -> Database:
    import random

    rng = random.Random(1996)
    database = Database()
    database.create_table(
        TableSchema(
            "a",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, rng.randint(0, 40)) for i in range(2000)],
    )
    database.create_table(
        TableSchema(
            "b",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
        ),
        rows=[
            (rng.randint(0, 1999), rng.randint(0, 100)) for _ in range(8000)
        ],
    )
    database.create_index(Index.on("a_x", "a", ["x"], unique=True, clustered=True))
    database.create_index(Index.on("b_x", "b", ["x"], clustered=True))
    return database


@experiment("fig1", "Figure 1: QGM and QEP for the simple example query")
def fig1(**_ignored) -> ExperimentReport:
    from repro.parser import parse_query
    from repro.qgm import normalize, rewrite

    report = ExperimentReport(
        "fig1", "select a.y, sum(b.y) from a, b where a.x = b.x group by a.y"
    )
    database = _figure1_database()
    sql = (
        "select a.y, sum(b.y) as total from a, b "
        "where a.x = b.x group by a.y"
    )
    box = rewrite(parse_query(sql, database.catalog))
    block = normalize(box)
    qgm_text = (
        f"SELECT box: quantifiers={sorted(block.tables)}, "
        f"predicate=[{block.predicate}]\n"
        f"GROUP BY box: columns={[str(c) for c in block.group_columns]}, "
        f"aggregates={[name for name, _ in block.aggregates]}"
    )
    report.add_block("QGM (normalized)", qgm_text)
    result = run_query(database, sql, config=db2_faithful_config(True))
    report.add_block("QEP (chosen plan)", result.plan.explain())
    report.add_note(
        "the paper's QEP sorts on a.y below a merge-join feeding GROUP "
        "BY; cost-based choice here may pick an equivalent ordered plan"
    )
    report.data["plan"] = result.plan
    return report


# ----------------------------------------------------------------------
# Figure 6
# ----------------------------------------------------------------------


def _figure6_database() -> Database:
    import random

    rng = random.Random(66)
    database = Database()
    database.create_table(
        TableSchema(
            "a",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, rng.randint(0, 50)) for i in range(500)],
    )
    # b.x is unique: the Section 4.4 premise ("a.x is a base-table key
    # that remains a key after the join") under which Figure 6's single
    # sort satisfies merge-join + GROUP BY + ORDER BY at once.
    database.create_table(
        TableSchema(
            "b",
            [Column("x", INTEGER, nullable=False), Column("y", INTEGER)],
            primary_key=("x",),
        ),
        rows=[(i, rng.randint(0, 30)) for i in range(500)],
    )
    database.create_table(
        TableSchema(
            "c",
            [Column("x", INTEGER, nullable=False), Column("z", INTEGER)],
        ),
        rows=[
            (rng.randint(0, 499), rng.randint(0, 100)) for _ in range(8000)
        ],
    )
    database.create_index(
        Index.on("b_x", "b", ["x"], unique=True, clustered=True)
    )
    database.create_index(Index.on("c_x", "c", ["x"], clustered=True))
    return database


FIGURE6_SQL = (
    "select a.x, a.y, b.y, sum(c.z) as total from a, b, c "
    "where a.x = b.x and b.x = c.x "
    "group by a.x, a.y, b.y order by a.x"
)


@experiment(
    "fig6",
    "Figure 6: one sort satisfies merge-join, GROUP BY, and ORDER BY",
)
def fig6(**_ignored) -> ExperimentReport:
    report = ExperimentReport(
        "fig6",
        "sort push-down across two joins (Section 6 example)",
        headers=("config", "sorts", "order-by sorts", "group-by strategy"),
    )
    database = _figure6_database()
    for label, config in (
        ("order opt ON", db2_faithful_config(True)),
        ("order opt OFF", db2_faithful_config(False)),
    ):
        result = run_query(database, FIGURE6_SQL, config=config)
        plan = result.plan
        order_sorts = [
            node
            for node in plan.find_all(OpKind.SORT)
            if node.args.get("reason") == "order by"
        ]
        strategy = (
            "sorted" if plan.find_all(OpKind.GROUP_SORTED) else "hash"
        )
        report.add_row(
            label, plan.sort_count(), len(order_sorts), strategy
        )
        report.add_block(f"plan ({label})", plan.explain())
        report.data[label] = plan
    report.add_note(
        "with order optimization, the GROUP BY sort is reduced to the "
        "minimal columns and covers the ORDER BY (no top sort); the "
        "sort lands below the upper join"
    )
    return report


# ----------------------------------------------------------------------
# Figures 7 and 8
# ----------------------------------------------------------------------


def _query3_plan_report(
    figure: str, order_optimization: bool, scale_factor: float
) -> ExperimentReport:
    database = tpcd_database(scale_factor)
    result = run_query(
        database, QUERY_3, config=db2_faithful_config(order_optimization)
    )
    mode = "production" if order_optimization else "order-opt disabled"
    report = ExperimentReport(
        figure, f"TPC-D Query 3 plan, {mode} (SF {scale_factor})"
    )
    report.add_block("chosen plan", result.plan.explain())
    report.data["plan"] = result.plan
    checks = []
    plan = result.plan
    if order_optimization:
        checks.append(
            (
                "ordered NLJ probing clustered l_orderkey index",
                any(
                    node.args.get("ordered")
                    for node in plan.find_all(OpKind.NLJ_INDEX)
                ),
            )
        )
        checks.append(
            (
                "no sort needed for GROUP BY",
                not any(
                    node.args.get("reason") == "group by"
                    for node in plan.find_all(OpKind.SORT)
                ),
            )
        )
    else:
        checks.append(
            ("merge-join used", bool(plan.find_all(OpKind.MERGE_JOIN)))
        )
        checks.append(
            (
                "extra sort for GROUP BY",
                any(
                    node.args.get("reason") == "group by"
                    for node in plan.find_all(OpKind.SORT)
                ),
            )
        )
    checks.append(
        (
            "top sort on (rev desc, o_orderdate)",
            any(
                node.args.get("reason") == "order by"
                for node in plan.find_all(OpKind.SORT)
            ),
        )
    )
    for label, passed in checks:
        report.add_row(label, "yes" if passed else "NO")
    report.headers = ("paper plan feature", "reproduced")
    return report


@experiment("fig7", "Figure 7: Query 3 plan in the production build")
def fig7(scale_factor: float = DEFAULT_SCALE, **_ignored) -> ExperimentReport:
    return _query3_plan_report("fig7", True, scale_factor)


@experiment("fig8", "Figure 8: Query 3 plan with order optimization disabled")
def fig8(scale_factor: float = DEFAULT_SCALE, **_ignored) -> ExperimentReport:
    return _query3_plan_report("fig8", False, scale_factor)


# ----------------------------------------------------------------------
# Section 5.2 complexity claim
# ----------------------------------------------------------------------


@experiment(
    "complexity",
    "Section 5.2: join enumeration grows ~O(n^2) in sort-ahead orders",
)
def complexity(tables: int = 5, **_ignored) -> ExperimentReport:
    import random

    from repro.core.ordering import OrderSpec
    from repro.expr.nodes import ColumnRef
    from repro.optimizer.enumerate import enumerate_joins
    from repro.optimizer.order_scan import run_order_scan
    from repro.optimizer.planner import PlannerContext
    from repro.parser import parse_query
    from repro.qgm import normalize, rewrite

    rng = random.Random(52)
    database = Database()
    aliases = [f"t{i}" for i in range(tables)]
    for alias in aliases:
        database.create_table(
            TableSchema(
                alias,
                [
                    Column("k", INTEGER, nullable=False),
                    Column("v", INTEGER),
                ],
                primary_key=("k",),
            ),
            rows=[(i, rng.randint(0, 99)) for i in range(300)],
        )
        database.create_index(
            Index.on(f"{alias}_k", alias, ["k"], unique=True, clustered=True)
        )
    joins = " and ".join(
        f"{aliases[i]}.k = {aliases[i + 1]}.k" for i in range(tables - 1)
    )
    sql = (
        "select "
        + ", ".join(f"{alias}.v" for alias in aliases)
        + " from "
        + ", ".join(aliases)
        + f" where {joins}"
    )
    block = normalize(rewrite(parse_query(sql, database.catalog)))

    report = ExperimentReport(
        "complexity",
        f"plans generated while enumerating a {tables}-way join chain, "
        "as sort-ahead orders grow",
        headers=("sort-ahead orders n", "plans generated", "vs n=0"),
    )
    baseline = None
    counts = []
    for n in range(5):
        planner = PlannerContext.build(
            database, OptimizerConfig(), block
        )
        # Synthesize n distinct interesting orders over different value
        # columns, mimicking n order requirements hung off the box.
        planner.interesting_orders = [
            OrderSpec.of(ColumnRef(aliases[i], "v")) for i in range(n)
        ]
        enumerate_joins(planner)
        generated = planner.stats.plans_generated
        counts.append(generated)
        if baseline is None:
            baseline = generated
        report.add_row(n, generated, f"{generated / baseline:.2f}x")
    report.data["counts"] = counts
    report.add_note(
        "the paper proves an O(n^2) factor; in practice n < 3 "
        "(Section 5.2) — growth here should be visibly superlinear "
        "but modest"
    )
    return report


# ----------------------------------------------------------------------
# Ablations (Section 8 discussion)
# ----------------------------------------------------------------------


def _warehouse_database() -> Database:
    import random

    rng = random.Random(88)
    database = Database()
    database.create_table(
        TableSchema(
            "sku",
            [
                Column("id", INTEGER, nullable=False),
                Column("cat", INTEGER),
                Column("region", INTEGER),
            ],
            primary_key=("id",),
        ),
        rows=[
            (i, rng.randint(0, 20), rng.randint(0, 5)) for i in range(3000)
        ],
    )
    database.create_table(
        TableSchema(
            "sales",
            [
                Column("sku_id", INTEGER, nullable=False),
                Column("day", INTEGER),
                Column("amount", INTEGER),
            ],
        ),
        rows=[
            (rng.randint(0, 2999), rng.randint(0, 365), rng.randint(1, 500))
            for _ in range(20000)
        ],
    )
    database.create_index(
        Index.on("pk_sku", "sku", ["id"], unique=True, clustered=True)
    )
    database.create_index(Index.on("sales_sku", "sales", ["sku_id"], clustered=True))
    return database


def _ablation_report(
    experiment_id: str,
    title: str,
    sql: str,
    database: Database,
    configs: List[Tuple[str, OptimizerConfig]],
    runs: int = 3,
) -> ExperimentReport:
    report = ExperimentReport(
        experiment_id,
        title,
        headers=("config", "wall (ms)", "simulated (ms)", "sorts", "est (ms)"),
    )
    baseline_rows = None
    for label, config in configs:
        wall, sim, result = _timed_runs(database, sql, config, runs)
        report.add_row(
            label,
            f"{wall * 1000:.0f}",
            f"{sim:.0f}",
            result.plan.sort_count(),
            f"{result.plan.cost.total_ms:.0f}",
        )
        rows = sorted(map(str, result.rows))
        if baseline_rows is None:
            baseline_rows = rows
        elif rows != baseline_rows:
            raise AssertionError(f"result mismatch under {label}")
        report.data[label] = result.plan
    return report


@experiment(
    "ablation_reduce",
    "Ablation: Reduce Order (redundant sort columns from predicates/keys)",
)
def ablation_reduce(**_ignored) -> ExperimentReport:
    # The intro's warehouse redundancy: sort on a constant-bound column,
    # group on key columns plus functionally dependent ones.
    sql = (
        "select id, cat, region, sum(amount) as total "
        "from sku, sales where id = sku_id and region = 3 "
        "group by id, cat, region order by region, id"
    )
    on = db2_faithful_config(True)
    off = db2_faithful_config(True)
    off.enable_reduction = False
    off.enable_general_orders = False
    return _ablation_report(
        "ablation_reduce",
        "grouping on key + dependents, ordering on constant-bound column",
        sql,
        _warehouse_database(),
        [("reduction ON", on), ("reduction OFF", off)],
    )


@experiment(
    "ablation_cover",
    "Ablation: Cover Order (one sort for GROUP BY + ORDER BY)",
)
def ablation_cover(**_ignored) -> ExperimentReport:
    sql = (
        "select cat, region, sum(amount) as total "
        "from sku, sales where id = sku_id "
        "group by cat, region order by region"
    )
    on = db2_faithful_config(True)
    off = db2_faithful_config(True)
    off.enable_cover = False
    return _ablation_report(
        "ablation_cover",
        "GROUP BY {cat, region} + ORDER BY region",
        sql,
        _warehouse_database(),
        [("cover ON", on), ("cover OFF", off)],
    )


@experiment(
    "ablation_sortahead",
    "Ablation: sort-ahead (pushing the sort below the join)",
)
def ablation_sortahead(
    scale_factor: float = DEFAULT_SCALE, **_ignored
) -> ExperimentReport:
    on = db2_faithful_config(True)
    off = db2_faithful_config(True)
    off.enable_sort_ahead = False
    return _ablation_report(
        "ablation_sortahead",
        "TPC-D Query 3 with and without sort-ahead",
        QUERY_3,
        tpcd_database(scale_factor),
        [("sort-ahead ON", on), ("sort-ahead OFF", off)],
    )


@experiment(
    "order_deps",
    "Ablation: order dependencies (monotonic derived columns reuse "
    "existing orders)",
)
def order_deps(**_ignored) -> ExperimentReport:
    """Q-level sort counts with ODs on vs FD-only, asserted on <= off.

    Each query orders by a monotonic image of an indexed column
    (``id + 1``, a flipped NOT NULL column, a computed group-by view
    head); the OD machinery proves the existing order suffices, the
    FD-only build must sort after projecting.
    """
    queries = (
        ("computed alias", "select id + 1 as i2 from sku order by i2"),
        (
            "flip, NOT NULL",
            "select 3000 - id as rev from sku order by rev desc",
        ),
        (
            "view head",
            "select g2, n from (select sku_id + 1 as g2, count(*) as n "
            "from sales group by sku_id) t order by g2",
        ),
    )
    on = db2_faithful_config(True)
    off = db2_faithful_config(True)
    off.use_order_dependencies = False
    database = _warehouse_database()
    report = ExperimentReport(
        "order_deps",
        "sorts per query, order dependencies vs FD-only",
        headers=("query", "sorts (ODs ON)", "sorts (ODs OFF)"),
    )
    for label, sql in queries:
        result_on = run_query(database, sql, config=on)
        result_off = run_query(database, sql, config=off)
        if result_on.rows != result_off.rows:
            raise AssertionError(f"result mismatch for {label!r}")
        sorts_on = result_on.plan.sort_count()
        sorts_off = result_off.plan.sort_count()
        if sorts_on > sorts_off:
            raise AssertionError(
                f"order dependencies added a sort for {label!r}: "
                f"{sorts_on} > {sorts_off}"
            )
        report.add_row(label, sorts_on, sorts_off)
        report.data[label] = (sorts_on, sorts_off)
    report.add_note(
        "Every row must satisfy ON <= OFF (asserted); rows are "
        "byte-compared between builds before counting."
    )
    return report


@experiment(
    "suite",
    "Section 8: order-sensitive query suite, production vs disabled "
    "(the paper's 'internal benchmarks' analog)",
)
def suite(
    scale_factor: float = DEFAULT_SCALE, runs: int = 3, **_ignored
) -> ExperimentReport:
    """Per-query on/off ratios over an order-sensitive workload.

    The paper: "IBM maintains a number of internal benchmarks... On
    those benchmarks and at customer sites, we have observed substantial
    improvement in the performance of many queries." This regenerates
    that flavour of result: a mixed suite where each query leans on a
    different technique.
    """
    from repro.tpcd import tpcd_query

    report = ExperimentReport(
        "suite",
        f"order-sensitive suite at SF {scale_factor} ({runs}-run average)",
        headers=(
            "query",
            "technique exercised",
            "ON wall (ms)",
            "OFF wall (ms)",
            "ratio",
        ),
    )
    tpcd = tpcd_database(scale_factor)
    warehouse = _warehouse_database()
    workload = [
        ("tpcd-q3", "sort-ahead + ordered NLJ + FD group-by", tpcd, tpcd_query("q3")),
        ("tpcd-q1", "group-by/order-by cover", tpcd, tpcd_query("q1")),
        ("tpcd-q4", "index order + small group", tpcd, tpcd_query("q4")),
        (
            "wh-keys",
            "reduction: grouping on key + dependents",
            warehouse,
            "select id, cat, region, sum(amount) as total from sku, sales "
            "where id = sku_id group by id, cat, region order by id",
        ),
        (
            "wh-const",
            "reduction: constant-bound sort column",
            warehouse,
            "select id, region, sum(amount) as total from sku, sales "
            "where id = sku_id and region = 3 "
            "group by id, region order by region, id",
        ),
        (
            "wh-permute",
            "degrees of freedom (§7)",
            warehouse,
            "select cat, region, sum(amount) as total from sku, sales "
            "where id = sku_id group by cat, region order by region",
        ),
    ]
    ratios: List[float] = []
    for name, technique, database, sql in workload:
        on_wall, _on_sim, on_result = _timed_runs(
            database, sql, db2_faithful_config(True), runs
        )
        off_wall, _off_sim, off_result = _timed_runs(
            database, sql, db2_faithful_config(False), runs
        )
        assert sorted(map(str, on_result.rows)) == sorted(
            map(str, off_result.rows)
        )
        ratio = off_wall / on_wall
        ratios.append(max(ratio, 1e-6))
        report.add_row(
            name,
            technique,
            f"{on_wall * 1000:.0f}",
            f"{off_wall * 1000:.0f}",
            f"{ratio:.2f}",
        )
    import math

    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    report.add_row("geometric mean", "", "", "", f"{geomean:.2f}")
    report.data["ratios"] = ratios
    report.data["geomean"] = geomean
    report.add_note(
        "ratios >= 1 mean the order-optimized build wins; the paper "
        "reports 'substantial improvement in many queries' without "
        "numbers beyond Query 3's 2.04x"
    )
    return report


@experiment(
    "ablation_prefetch",
    "Substitution check: the prefetch window is what makes ordered "
    "probes pay (the paper's big-block I/O)",
)
def ablation_prefetch(
    scale_factor: float = DEFAULT_SCALE, runs: int = 3, **_ignored
) -> ExperimentReport:
    """Re-run Q3's Figure-7 plan under different prefetch windows.

    The paper's configuration drove the CPU to 100% with big-block I/O
    and prefetching; our buffer pool models that with a window of pages
    after the previous miss that count as sequential. Shrinking the
    window to 1 (no prefetch) makes the ordered NLJ's sparse monotone
    probes register as random I/O — quantifying how much of Figure 7's
    win rests on the hardware behaviour the paper describes.
    """
    from repro.storage.buffer import BufferPool

    report = ExperimentReport(
        "ablation_prefetch",
        f"Q3 Figure-7 plan, simulated elapsed vs prefetch window "
        f"(SF {scale_factor})",
        headers=("prefetch window (pages)", "simulated elapsed (ms)",
                 "random misses", "sequential misses"),
    )
    database = tpcd_database(scale_factor)
    plan = plan_query(database, QUERY_3, config=db2_faithful_config(True))
    original = BufferPool.PREFETCH_WINDOW
    try:
        for window in (1, 8, 32):
            BufferPool.PREFETCH_WINDOW = window
            sims = []
            result = None
            for _ in range(runs):
                result = execute(database, plan, cold_cache=True)
                sims.append(result.simulated_elapsed_ms)
            report.add_row(
                window,
                f"{sum(sims) / len(sims):.0f}",
                result.io_stats.random_misses,
                result.io_stats.sequential_misses,
            )
    finally:
        BufferPool.PREFETCH_WINDOW = original
    report.add_note(
        "window=1 strips the prefetch model: ordered probes degrade "
        "toward random I/O, shrinking Figure 7's advantage — the "
        "substitution (prefetch window for the paper's big-block I/O) "
        "is load-bearing and explicit"
    )
    return report


# ----------------------------------------------------------------------
# Plan-time profiling of the order algebra itself
# ----------------------------------------------------------------------


def _clear_planning_caches() -> None:
    from repro.core.memo import clear_memos
    from repro.properties.propagate import clear_propagation_memo

    clear_memos()
    clear_propagation_memo()


def _plan_q3_instrumented(
    database: Database, runs: int, memoized: bool
) -> Tuple[float, Dict[str, float]]:
    """(best wall s, counter snapshot) for one cold-cache Q3 planning."""
    from contextlib import nullcontext

    from repro.core import instrument
    from repro.core.memo import memoization_disabled

    config = db2_faithful_config(True)
    best = float("inf")
    stats: Dict[str, float] = {}
    for _ in range(max(1, runs)):
        _clear_planning_caches()
        instrument.reset()
        guard = nullcontext() if memoized else memoization_disabled()
        with guard:
            started = time.perf_counter()
            plan_query(database, QUERY_3, config=config)
            best = min(best, time.perf_counter() - started)
        stats = instrument.snapshot()
    return best, stats


@experiment(
    "core_ops",
    "Plan-time profile: order-algebra call counts and memo hit rates "
    "while planning TPC-D Query 3",
)
def core_ops(
    scale_factor: float = DEFAULT_SCALE, runs: int = DEFAULT_RUNS, **_ignored
) -> ExperimentReport:
    """Before/after view of the algebra memoization on Q3 planning.

    "Before" plans with the four operations' memo tables bypassed (the
    same indexed closure underneath); "after" is the production path.
    Run through ``python -m repro.bench`` the machine-readable payload
    is written to ``BENCH_core_ops.json`` under ``--json-dir`` — an
    output of the run; no snapshot of it is committed.
    """
    from repro.core import instrument

    report = ExperimentReport(
        "core_ops",
        f"order-algebra counters for one TPC-D Q3 planning (SF "
        f"{scale_factor}, best of {runs})",
        headers=("counter", "memo off", "memo on"),
    )
    database = tpcd_database(scale_factor)
    before_wall, before = _plan_q3_instrumented(database, runs, memoized=False)
    after_wall, after = _plan_q3_instrumented(database, runs, memoized=True)

    interesting = (
        "reduce.calls",
        "test.calls",
        "cover.calls",
        "homogenize.calls",
        "closure.builds",
        "closure.iterations",
        "context.builds",
        "stream.context_calls",
        "propagate.join_calls",
    )
    for name in interesting:
        report.add_row(name, before.get(name, 0), after.get(name, 0))
    report.add_row(
        "planning wall-clock (ms)",
        f"{before_wall * 1000:.1f}",
        f"{after_wall * 1000:.1f}",
    )

    hit_rates = {
        subsystem: instrument.hit_rate(after, subsystem)
        for subsystem in ("reduce", "test", "cover", "homogenize")
    }
    algebra_calls = sum(
        after.get(f"{s}.calls", 0)
        for s in ("reduce", "test", "cover", "homogenize")
    )
    algebra_hits = sum(
        after.get(f"{s}.memo_hits", 0)
        for s in ("reduce", "test", "cover", "homogenize")
    )
    overall = algebra_hits / algebra_calls if algebra_calls else 0.0
    for subsystem, rate in hit_rates.items():
        report.add_row(f"{subsystem} hit rate", "-", f"{rate:.1%}")
    report.add_row("overall algebra hit rate", "-", f"{overall:.1%}")
    report.add_note(
        "memo-off still uses the indexed incremental closure; the delta "
        "isolates what the per-context memo tables buy on top"
    )
    report.data["json"] = {
        "experiment": "core_ops",
        "query": "tpcd-q3",
        "scale_factor": scale_factor,
        "runs": runs,
        "before": {
            "wall_seconds": before_wall,
            "counters": {k: before.get(k, 0) for k in interesting},
        },
        "after": {
            "wall_seconds": after_wall,
            "counters": {k: after.get(k, 0) for k in interesting},
        },
        "hit_rates": dict(hit_rates, overall=overall),
    }
    report.data["overall_hit_rate"] = overall
    return report


@experiment(
    "ablation_hash",
    "Extension: hash-based operators vs the 1996 sort-based repertoire",
)
def ablation_hash(
    scale_factor: float = DEFAULT_SCALE, **_ignored
) -> ExperimentReport:
    sort_based = db2_faithful_config(True)
    with_hash = OptimizerConfig()  # hash join + hash group-by available
    return _ablation_report(
        "ablation_hash",
        "TPC-D Query 3: order-based vs hash-enabled optimizer",
        QUERY_3,
        tpcd_database(scale_factor),
        [("sort/merge/NLJ only", sort_based), ("hash enabled", with_hash)],
    )


@experiment(
    "verify_smoke",
    "Differential plan-oracle smoke: config-matrix fuzz + property audit",
)
def verify_smoke(**_ignored) -> ExperimentReport:
    """Run the ``repro.verify`` smoke battery and report its counts.

    Registered here so CI that already drives ``python -m repro.bench``
    gets the correctness harness for free; ``python -m repro.verify
    smoke`` is the standalone entry point.
    """
    from repro.verify.oracle import run_audit_battery, run_fuzz, tier1_matrix

    fuzz_report = run_fuzz(
        seed=2026,
        n=12,
        configs=tier1_matrix(),
        audit_configs=("full", "disabled"),
        compare_exec_modes=True,
    )
    audit_mismatches = run_audit_battery()

    report = ExperimentReport(
        "verify_smoke",
        "Differential plan-oracle smoke run",
        headers=("check", "scope", "result"),
    )
    report.add_row(
        "config-matrix fuzz (+ vector/interpreted executor diff)",
        f"{fuzz_report.queries} queries x {fuzz_report.configs} configs",
        "ok" if fuzz_report.ok else f"{len(fuzz_report.failures)} FAILURES",
    )
    report.add_row(
        "plan-property audit",
        "fixed battery",
        "ok" if not audit_mismatches else f"{len(audit_mismatches)} FAILURES",
    )
    for failure in fuzz_report.failures:
        report.add_note(f"fuzz failure: {failure.spec.sql()}")
    for mismatch in audit_mismatches:
        report.add_note(f"audit failure: {mismatch}")
    report.data["json"] = {
        "fuzz_queries": fuzz_report.queries,
        "fuzz_configs": fuzz_report.configs,
        "fuzz_failures": len(fuzz_report.failures),
        "audit_failures": len(audit_mismatches),
    }
    return report


# ----------------------------------------------------------------------
# Query-service throughput (parameterized plan cache, warm vs cold)
# ----------------------------------------------------------------------


def _service_workload(
    round_index: int, customer_count: int
) -> List[Tuple[str, str]]:
    """One round of the dashboard-replay workload, as (class, sql).

    The shape mirrors how a reporting front end actually re-issues the
    paper's queries: the expensive rollups refresh occasionally with a
    rotating date window, while per-customer drill-downs — the same
    statement with a different key — dominate the statement count.
    Every literal varies per round, so nothing would hit a naive
    text-keyed cache; only auto-parameterization makes these replays.
    """
    statements: List[Tuple[str, str]] = []
    quarters = [f"199{3 + y}-{q:02d}-01" for y in range(3) for q in (1, 4, 7, 10)]
    start = quarters[round_index % len(quarters)]
    end = quarters[(round_index % len(quarters)) + 1] if (
        round_index % len(quarters)
    ) + 1 < len(quarters) else "1996-01-01"
    statements.append((
        "q10_rollup",
        f"""select c_custkey, c_name,
               sum(l_extendedprice * (1 - l_discount)) as revenue,
               c_acctbal, n_name
        from customer, orders, lineitem, nation
        where c_custkey = o_custkey and l_orderkey = o_orderkey
          and o_orderdate >= date('{start}')
          and o_orderdate < date('{end}')
          and l_returnflag = 'R' and c_nationkey = n_nationkey
        group by c_custkey, c_name, c_acctbal, n_name
        order by revenue desc""",
    ))
    if round_index % 4 == 0:
        cutoff = f"1995-0{1 + round_index % 3}-15"
        statements.append((
            "q3_rollup",
            f"""select l_orderkey,
                   sum(l_extendedprice * (1 - l_discount)) as rev,
                   o_orderdate, o_shippriority
            from customer, orders, lineitem
            where o_orderkey = l_orderkey and c_custkey = o_custkey
              and c_mktsegment = 'BUILDING'
              and o_orderdate < date('{cutoff}')
              and l_shipdate > date('{cutoff}')
            group by l_orderkey, o_orderdate, o_shippriority
            order by rev desc, o_orderdate""",
        ))
    for drill in range(4):
        custkey = (137 * (13 * round_index + drill)) % customer_count + 1
        statements.append((
            "q3_customer",
            f"""select l_orderkey,
                   sum(l_extendedprice * (1 - l_discount)) as rev,
                   o_orderdate, o_shippriority
            from customer, orders, lineitem
            where o_orderkey = l_orderkey and c_custkey = o_custkey
              and c_custkey = {custkey}
              and o_orderdate < date('1995-03-15')
              and l_shipdate > date('1995-03-15')
            group by l_orderkey, o_orderdate, o_shippriority
            order by rev desc, o_orderdate""",
        ))
    for drill in range(8):
        custkey = (311 * (17 * round_index + drill)) % customer_count + 1
        statements.append((
            "order_browse",
            f"""select o_orderkey, o_orderdate, o_totalprice
            from orders where o_custkey = {custkey}
            order by o_orderdate desc""",
        ))
    return statements


@experiment(
    "service_throughput",
    "Query service: warm parameterized plan cache vs cold re-planning "
    "on a TPC-D Q3/Q10 replay workload",
)
def service_throughput(
    scale_factor: float = DEFAULT_SCALE, runs: int = DEFAULT_RUNS, **_ignored
) -> ExperimentReport:
    """QPS with and without the plan cache on a dashboard replay.

    Cold baseline: every statement goes through ``run_query`` — parse,
    optimize, execute, exactly what each arrival costs without a
    service. Warm: the same statements submitted to a
    :class:`~repro.service.QueryService`, whose cache normalizes away
    the rotating literals (one plan per statement class) so arrivals
    pay execution only. Both sides run the identical statement texts
    and the row payloads are asserted equal per statement.

    The machine-readable payload lands in ``BENCH_service_ops.json``.
    """
    import time as _time

    from repro.api import run_query
    from repro.errors import AdmissionError, QueryTimeout
    from repro.service import QueryService
    from repro.verify.oracle import normalized

    rounds = max(3, runs)
    database = tpcd_database(scale_factor)
    customer_count = database.store("customer").row_count()
    workload = [
        statement
        for index in range(rounds)
        for statement in _service_workload(index, customer_count)
    ]

    # Cold: re-plan every arrival.
    cold_rows = []
    cold_started = _time.perf_counter()
    for _class_name, sql in workload:
        cold_rows.append(run_query(database, sql).rows)
    cold_elapsed = _time.perf_counter() - cold_started

    # Warm: same texts through the service. One untimed priming round
    # populates the cache; the timed pass then measures steady state.
    with QueryService(database, workers=2, queue_depth=1024) as service:
        for _class_name, sql in _service_workload(0, customer_count):
            service.query(sql)
        prime_stats = service.stats()
        warm_started = _time.perf_counter()
        futures = [service.submit(sql) for _class_name, sql in workload]
        warm_rows = [future.result().rows for future in futures]
        warm_elapsed = _time.perf_counter() - warm_started
        stats = service.stats()

    for (class_name, sql), cold, warm in zip(workload, cold_rows, warm_rows):
        if normalized(cold) != normalized(warm):
            raise AssertionError(
                f"service rows diverge from cold rows for {class_name}: "
                f"{sql[:80]}..."
            )

    # Overloaded: the same replay against a deliberately undersized
    # service — a tiny admission queue plus a tight per-query deadline.
    # This measures the resilience path instead of raw throughput:
    # arrivals beyond the queue fail fast with AdmissionError, admitted
    # stragglers are stopped by their deadline mid-execution, and the
    # service keeps draining the whole time.
    overload_deadline = 0.25
    completed = timed_out = rejected = 0
    with QueryService(
        database, workers=2, queue_depth=8,
        default_timeout=overload_deadline,
    ) as constrained:
        overload_started = _time.perf_counter()
        pending = []
        for _class_name, sql in workload:
            try:
                pending.append(constrained.submit(sql))
            except AdmissionError:
                rejected += 1
        for future in pending:
            try:
                future.result()
                completed += 1
            except QueryTimeout:
                timed_out += 1
        overload_elapsed = _time.perf_counter() - overload_started
        overload_stats = constrained.stats()
    if overload_stats.timeouts != timed_out or overload_stats.rejected != rejected:
        raise AssertionError(
            "service resilience counters disagree with observed outcomes: "
            f"stats timeouts={overload_stats.timeouts} rejected="
            f"{overload_stats.rejected} vs seen {timed_out}/{rejected}"
        )

    cold_qps = len(workload) / cold_elapsed
    warm_qps = len(workload) / warm_elapsed
    speedup = warm_qps / cold_qps
    timed = stats.queries - prime_stats.queries
    hits = stats.cache["hits"] - prime_stats.cache["hits"]
    hit_rate = hits / timed if timed else 0.0

    report = ExperimentReport(
        "service_throughput",
        f"TPC-D Q3/Q10 replay, {len(workload)} statements over {rounds} "
        f"rounds (SF {scale_factor})",
        headers=("path", "elapsed (s)", "QPS", "speedup"),
    )
    report.add_row("cold re-planning", f"{cold_elapsed:.2f}", f"{cold_qps:.1f}", "1.00x")
    report.add_row(
        "warm plan cache", f"{warm_elapsed:.2f}", f"{warm_qps:.1f}",
        f"{speedup:.2f}x",
    )
    report.add_row(
        f"overloaded (queue=8, {overload_deadline * 1000:.0f}ms deadline)",
        f"{overload_elapsed:.2f}",
        f"{completed / overload_elapsed:.1f}",
        "-",
    )
    report.add_note(
        f"overload scenario: {completed} completed, {timed_out} stopped "
        f"by the {overload_deadline * 1000:.0f}ms deadline, {rejected} "
        "rejected at admission — every submitted statement resolved"
    )
    report.add_note(
        f"warm pass: p50={stats.p50_ms:.1f}ms p95={stats.p95_ms:.1f}ms, "
        f"cache hit rate {hit_rate:.0%} over the timed statements "
        f"({stats.cache['misses']} total plans for {stats.queries} queries)"
    )
    report.add_note(
        "every literal rotates per round (dates, custkeys); the hits "
        "are auto-parameterization at work, not text-identical replay"
    )
    report.data["speedup"] = speedup
    report.data["json_name"] = "service_ops"
    report.data["json"] = {
        "experiment": "service_throughput",
        "scale_factor": scale_factor,
        "rounds": rounds,
        "statements": len(workload),
        "cold": {"elapsed_seconds": cold_elapsed, "qps": cold_qps},
        "warm": {
            "elapsed_seconds": warm_elapsed,
            "qps": warm_qps,
            "p50_ms": stats.p50_ms,
            "p95_ms": stats.p95_ms,
            "hit_rate": hit_rate,
            "rejected": stats.rejected,
        },
        "overloaded": {
            "elapsed_seconds": overload_elapsed,
            "deadline_seconds": overload_deadline,
            "queue_depth": 8,
            "completed": completed,
            "timeouts": timed_out,
            "rejected": rejected,
        },
        "speedup": speedup,
    }
    return report


# ----------------------------------------------------------------------
# Order enforcement: prefix-aware partial sort + shared sort segments
# ----------------------------------------------------------------------


def _segment_database() -> Database:
    """Two merge joins sharing the leading join column ``x``.

    ``r`` joins ``s`` on (x, y) and ``t2`` on (x, w); only the
    segment-aligned (x, w) key sequence for the second join reuses the
    (x, y, ...) order the first join already delivered. The t2 join's
    conjuncts are deliberately written w-first so the unaligned
    optimizer picks the (w, x) sequence and pays a fresh full sort.
    """
    import random

    rng = random.Random(11)
    db = Database()
    db.create_table(
        TableSchema(
            "r",
            [
                Column("id", INTEGER, nullable=False),
                Column("x", INTEGER, nullable=False),
                Column("y", INTEGER, nullable=False),
                Column("w", INTEGER, nullable=False),
            ],
            primary_key=("id",),
        ),
        rows=[
            (i, rng.randint(0, 40), rng.randint(0, 10), rng.randint(0, 10))
            for i in range(4000)
        ],
    )
    db.create_table(
        TableSchema(
            "s",
            [
                Column("x", INTEGER, nullable=False),
                Column("y", INTEGER, nullable=False),
            ],
        ),
        rows=[(rng.randint(0, 40), rng.randint(0, 10)) for _ in range(1000)],
    )
    db.create_table(
        TableSchema(
            "t2",
            [
                Column("x", INTEGER, nullable=False),
                Column("w", INTEGER, nullable=False),
            ],
        ),
        rows=[(rng.randint(0, 40), rng.randint(0, 10)) for _ in range(1000)],
    )
    return db


_SEGMENT_SQL = (
    "select r.id from r, s, t2 "
    "where r.x = s.x and r.y = s.y "
    "and r.w = t2.w and r.x = t2.x "
    "order by r.id"
)


@experiment(
    "order_enforcement",
    "Extension: prefix-aware partial sort vs full sort, and shared "
    "sort segments across merge joins",
)
def order_enforcement(
    runs: int = DEFAULT_RUNS, **_ignored
) -> ExperimentReport:
    """Wall-clock and plan-shape payoff of segmented order enforcement.

    Part A is an operator-level microbench: the same prefix-sorted
    input (120k rows ordered on ``g``, random ``v``) is brought to the
    full (g, v) order by ``SortOp`` and by ``PartialSortOp`` with a
    one-key prefix, at several prefix-group cardinalities. Sort memory
    is constrained to 4096 rows, the regime the operator targets: the
    full sort must cut external runs and heap-merge the whole input,
    while per-group sorts stay in memory whenever a group fits. Rows
    are byte-compared between the arms on every configuration. At 10
    groups (12k rows each) the groups themselves overflow sort memory
    and the partial sort degrades gracefully toward the full sort's
    spill behavior — that row is reported but not part of the
    acceptance check.

    Part B plans the shared-segment query (two merge joins on (x, y)
    and (x, w), joined-column conjuncts written against the alignment)
    with partial sort on vs off under the sort/merge-only repertoire,
    asserting the aligned build uses strictly fewer full sorts and the
    same rows.

    The machine-readable payload lands in
    ``BENCH_order_enforcement.json`` when run through
    ``python -m repro.bench``.
    """
    from repro.core import OrderSpec
    from repro.executor import ExecutionContext, PartialSortOp, SortOp
    from repro.executor.operators import PhysicalOperator, row_blocks
    from repro.expr import RowSchema, col

    import random

    g_column, v_column = col("m", "g"), col("m", "v")
    schema = RowSchema([g_column, v_column])
    order = OrderSpec.of(g_column, v_column)

    class PrefixSortedRows(PhysicalOperator):
        """Static in-memory source delivering rows ordered on ``g``."""

        def __init__(self, rows):
            super().__init__(schema)
            self._rows = rows

        def _blocks(self, context):
            return row_blocks(self._rows, context.batch_size)

        def label(self):
            return "prefix-sorted rows"

    total_rows = 120_000
    sort_memory = 4096
    timing_runs = max(1, min(runs, 3))
    scratch = Database()

    def best_of(make_operator):
        best = float("inf")
        context = rows = None
        for _ in range(timing_runs):
            context = ExecutionContext(scratch, sort_memory_rows=sort_memory)
            operator = make_operator()
            started = time.perf_counter()
            rows = operator.execute(context)
            best = min(best, time.perf_counter() - started)
        return best, rows, context

    report = ExperimentReport(
        "order_enforcement",
        f"segmented enforcement: {total_rows} prefix-sorted rows, sort "
        f"memory {sort_memory} rows, best of {timing_runs}",
        headers=(
            "input",
            "rows/group",
            "full sort (ms)",
            "partial sort (ms)",
            "speedup",
            "spill pages (full/partial)",
        ),
    )
    payload: Dict[str, object] = {
        "experiment": "order_enforcement",
        "total_rows": total_rows,
        "sort_memory_rows": sort_memory,
        "runs": timing_runs,
        "microbench": [],
    }
    rng = random.Random(42)
    for groups in (10, 100, 1000):
        rows = [(i % groups, rng.randint(0, 1 << 30)) for i in range(total_rows)]
        rows.sort(key=lambda row: row[0])
        full_seconds, full_rows, full_context = best_of(
            lambda: SortOp(PrefixSortedRows(rows), order)
        )
        partial_seconds, partial_rows, partial_context = best_of(
            lambda: PartialSortOp(PrefixSortedRows(rows), order, 1)
        )
        if full_rows != partial_rows:
            raise AssertionError(
                f"partial sort diverges from full sort at {groups} groups"
            )
        speedup = full_seconds / partial_seconds
        if groups >= 100 and speedup < 1.5:
            report.add_note(
                f"WARNING: speedup {speedup:.2f}x below the 1.5x target "
                f"at {groups} groups"
            )
        report.add_row(
            f"{groups} groups",
            total_rows // groups,
            f"{full_seconds * 1000:.1f}",
            f"{partial_seconds * 1000:.1f}",
            f"{speedup:.2f}x",
            f"{full_context.spill_pages}/{partial_context.spill_pages}",
        )
        payload["microbench"].append(
            {
                "groups": groups,
                "rows_per_group": total_rows // groups,
                "full_sort_seconds": full_seconds,
                "partial_sort_seconds": partial_seconds,
                "speedup": speedup,
                "full_spill_pages": full_context.spill_pages,
                "partial_spill_pages": partial_context.spill_pages,
                "rows_sorted": full_context.rows_sorted,
                "rows_partial_sorted": partial_context.rows_partial_sorted,
            }
        )

    # Part B: shared sort segments across consecutive merge joins.
    merge_only = OptimizerConfig(
        enable_hash_join=False,
        enable_hash_group_by=False,
        enable_index_nlj=False,
    )
    unaligned_config = OptimizerConfig(
        enable_hash_join=False,
        enable_hash_group_by=False,
        enable_index_nlj=False,
        enable_partial_sort=False,
    )
    segment_db = _segment_database()
    aligned_wall, aligned_sim, aligned = _timed_runs(
        segment_db, _SEGMENT_SQL, merge_only, timing_runs
    )
    unaligned_wall, unaligned_sim, unaligned = _timed_runs(
        segment_db, _SEGMENT_SQL, unaligned_config, timing_runs
    )
    if aligned.rows != unaligned.rows:
        raise AssertionError("segment-aligned build changed the result rows")
    aligned_sorts = aligned.plan.sort_count()
    unaligned_sorts = unaligned.plan.sort_count()
    if aligned_sorts >= unaligned_sorts:
        raise AssertionError(
            "segment alignment must use strictly fewer full sorts: "
            f"{aligned_sorts} vs {unaligned_sorts}"
        )
    report.add_row(
        "merge-join segments ON",
        "-",
        "-",
        f"{aligned_wall * 1000:.1f}",
        f"sorts {aligned_sorts} + partial {aligned.plan.partial_sort_count()}",
        "-",
    )
    report.add_row(
        "merge-join segments OFF",
        "-",
        "-",
        f"{unaligned_wall * 1000:.1f}",
        f"sorts {unaligned_sorts}",
        "-",
    )
    payload["shared_segments"] = {
        "sql": _SEGMENT_SQL,
        "aligned_wall_seconds": aligned_wall,
        "aligned_simulated_ms": aligned_sim,
        "aligned_full_sorts": aligned_sorts,
        "aligned_partial_sorts": aligned.plan.partial_sort_count(),
        "unaligned_wall_seconds": unaligned_wall,
        "unaligned_simulated_ms": unaligned_sim,
        "unaligned_full_sorts": unaligned_sorts,
        "rows": len(aligned.rows),
    }
    report.add_note(
        "byte-compared: partial vs full sort rows per microbench row, "
        "aligned vs unaligned rows for the segment query"
    )
    report.add_note(
        "10-group row: 12k-row groups overflow the 4096-row sort memory, "
        "so the partial sort spills per group and converges toward the "
        "full sort — the win comes from groups that fit"
    )
    report.data["json"] = payload
    return report


# ---------------------------------------------------------------------------
# Extension: partition-parallel plans (partitioned storage + exchanges)
# ---------------------------------------------------------------------------

# The ISSUE pins this experiment at TPC-D scale factor >= 0.1; smaller
# --sf values are clamped up so the recorded speedups always come from
# a non-toy table (150k orders / ~600k lineitems).
_PARALLEL_SCALE_FLOOR = 0.1
_PARALLEL_TPCD_CACHE: Dict[float, Database] = {}

# Four roughly equal date bands over the generated 1992..1998 span.
_ORDERS_DATE_BOUNDARIES = (
    datetime.date(1993, 7, 1),
    datetime.date(1995, 1, 1),
    datetime.date(1996, 7, 1),
)


def partitioned_tpcd_database(scale_factor: float) -> Database:
    """TPC-D under the partitioned physical design.

    ``orders`` is range-partitioned on ``o_orderdate`` (four date
    bands) and bulk-loaded in date order, so the *local*
    ``idx_o_orderdate`` is physically clustered and each partition
    scan delivers date order for free — ``pk_orders`` consequently
    loses its clustered flag. ``lineitem`` is hash-partitioned on
    ``l_orderkey``; routing preserves per-partition arrival order, so
    the clustered ``l_orderkey`` index stays physically true inside
    every partition. All other tables keep the warehouse layout.
    """
    if scale_factor not in _PARALLEL_TPCD_CACHE:
        generator = TpcdGenerator(scale_factor)
        schemas = tpcd_schema()
        for table, spec in (
            (
                "orders",
                range_spec(["o_orderdate"], list(_ORDERS_DATE_BOUNDARIES)),
            ),
            ("lineitem", hash_spec(["l_orderkey"], 4)),
        ):
            plain = schemas[table]
            schemas[table] = TableSchema(
                plain.name,
                plain.columns,
                primary_key=plain.primary_key,
                unique_keys=plain.unique_keys,
                partitioning=spec,
            )
        database = Database(4096)
        database.create_table(schemas["region"], generator.region_rows())
        database.create_table(schemas["nation"], generator.nation_rows())
        database.create_table(schemas["supplier"], generator.supplier_rows())
        database.create_table(schemas["customer"], generator.customer_rows())
        database.create_table(schemas["part"], generator.part_rows())
        database.create_table(schemas["partsupp"], generator.partsupp_rows())
        orders, lineitems = generator.order_and_lineitem_rows()
        orders.sort(key=lambda row: (row[4], row[0]))  # physical date order
        database.create_table(schemas["orders"], orders)
        database.create_table(schemas["lineitem"], lineitems)
        for index in tpcd_indexes():
            if index.name == "pk_orders":
                index = Index.on(
                    "pk_orders", "orders", ["o_orderkey"], unique=True
                )
            elif index.name == "idx_o_orderdate":
                index = Index.on(
                    "idx_o_orderdate", "orders", ["o_orderdate"],
                    clustered=True,
                )
            database.create_index(index)
        database.reset_io(cold=True)
        _PARALLEL_TPCD_CACHE[scale_factor] = database
    return _PARALLEL_TPCD_CACHE[scale_factor]


_PARALLEL_CASES = (
    (
        "pruned_scan",
        "date-band aggregate",
        # The predicate covers exactly the third date band: the
        # partitioned build prunes to one partition whose clustered
        # local index also delivers the GROUP BY/ORDER BY date order.
        "select o_orderdate, count(*) as n, sum(o_totalprice) as revenue "
        "from orders "
        "where o_orderdate >= date('1995-01-01') "
        "and o_orderdate < date('1996-07-01') "
        "group by o_orderdate order by o_orderdate",
    ),
    (
        "merge_order",
        "order by o_orderdate",
        # The pinned acceptance query: a merge exchange over four local
        # clustered index scans replaces the 150k-row full sort.
        "select o_orderkey, o_orderdate from orders order by o_orderdate",
    ),
    (
        "colocated_group",
        "group by l_orderkey",
        # Grouping on the hash-partitioning column: complete
        # per-partition aggregation below the gather, no combine stage.
        "select l_orderkey, count(*) as n, sum(l_quantity) as quantity "
        "from lineitem group by l_orderkey",
    ),
)

_PARALLEL_KINDS = (
    OpKind.PARTITION_SCAN,
    OpKind.GATHER_EXCHANGE,
    OpKind.MERGE_EXCHANGE,
    OpKind.PARTITION_SPLIT,
)


def _partitions_touched(plan) -> List[int]:
    touched = set()
    for node in plan.find_all(OpKind.PARTITION_SCAN):
        touched.update(node.args["partitions"])
    for node in plan.find_all(OpKind.INDEX_SCAN):
        if "partition" in node.args:
            touched.add(node.args["partition"])
    return sorted(touched)


def _group_operator_count(plan) -> int:
    return len(plan.find_all(OpKind.GROUP_HASH)) + len(
        plan.find_all(OpKind.GROUP_SORTED)
    )


@experiment(
    "parallel_ops",
    "Extension: partition-parallel plans vs single-stream on TPC-D",
)
def parallel_ops(
    scale_factor: float = _PARALLEL_SCALE_FLOOR,
    runs: int = DEFAULT_RUNS,
    **_ignored,
) -> ExperimentReport:
    """Partitioned vs single-stream plans on the same partitioned store.

    Three TPC-D queries run under the default build
    (``enable_partitioning`` on) and under ``enable_partitioning=False``
    on the *same* partitioned database, byte-comparing rows each time:

    * ``pruned_scan`` — a date-band aggregate whose predicate selects
      exactly one range partition; pruning must cut simulated I/O.
    * ``merge_order`` — ORDER BY on the range-partitioning column; the
      merge exchange over clustered local index scans must report
      ``sort_count() == 0`` while the single-stream plan pays a full
      sort (asserted, both ways).
    * ``colocated_group`` — GROUP BY on the hash-partitioning column;
      aggregation pushes below the gather, one operator per partition.

    The recorded speedups are simulated I/O and estimated plan cost
    (the cost model divides per-stream CPU across workers). Wall clock
    is reported too but is *not* the claim: partition workers are
    Python threads sharing the GIL, so CPU-bound stages do not speed
    up in wall time here.
    """
    scale_factor = max(float(scale_factor), _PARALLEL_SCALE_FLOOR)
    timing_runs = max(1, min(runs, 3))
    database = partitioned_tpcd_database(scale_factor)
    partitioned_config = OptimizerConfig()
    single_config = OptimizerConfig(enable_partitioning=False)

    report = ExperimentReport(
        "parallel_ops",
        f"TPC-D sf {scale_factor}: partitioned plans vs single-stream "
        f"on the same partitioned store, mean of {timing_runs}",
        headers=(
            "case",
            "part wall (ms)",
            "single wall (ms)",
            "sim I/O ms (part/single)",
            "sorts (part/single)",
            "est. cost speedup",
        ),
    )
    payload: Dict[str, object] = {
        "experiment": "parallel_ops",
        "scale_factor": scale_factor,
        "runs": timing_runs,
        "orders_rows": database.store("orders").heap.row_count,
        "lineitem_rows": database.store("lineitem").heap.row_count,
        "orders_partitions": len(_ORDERS_DATE_BOUNDARIES) + 1,
        "lineitem_partitions": 4,
        "cases": [],
    }

    for case_id, label, sql in _PARALLEL_CASES:
        on_wall, on_sim, on = _timed_runs(
            database, sql, partitioned_config, timing_runs
        )
        off_wall, off_sim, off = _timed_runs(
            database, sql, single_config, timing_runs
        )
        if " order by" in sql:
            rows_match = on.rows == off.rows
        else:
            rows_match = sorted(on.rows) == sorted(off.rows)
        if not rows_match:
            raise AssertionError(f"{case_id}: partitioned plan changed rows")
        for kind in _PARALLEL_KINDS:
            if off.plan.find_all(kind):
                raise AssertionError(
                    f"{case_id}: {kind} leaked into the single-stream plan"
                )
        on_cost = on.plan.cost.total_ms
        off_cost = off.plan.cost.total_ms
        if on_cost > off_cost:
            # The single-stream space is a subset of the partitioned
            # search space, so the chosen plan can never cost more.
            raise AssertionError(
                f"{case_id}: partitioned plan estimated dearer "
                f"({on_cost:.2f} vs {off_cost:.2f})"
            )
        case: Dict[str, object] = {
            "id": case_id,
            "sql": sql,
            "rows": len(on.rows),
            "partitioned": {
                "wall_seconds": on_wall,
                "simulated_ms": on_sim,
                "estimated_cost_ms": on_cost,
                "full_sorts": on.plan.sort_count(),
                "partial_sorts": on.plan.partial_sort_count(),
                "merge_exchanges": len(
                    on.plan.find_all(OpKind.MERGE_EXCHANGE)
                ),
                "gather_exchanges": len(
                    on.plan.find_all(OpKind.GATHER_EXCHANGE)
                ),
                "partitions_touched": _partitions_touched(on.plan),
                "group_operators": _group_operator_count(on.plan),
            },
            "single_stream": {
                "wall_seconds": off_wall,
                "simulated_ms": off_sim,
                "estimated_cost_ms": off_cost,
                "full_sorts": off.plan.sort_count(),
                "partial_sorts": off.plan.partial_sort_count(),
                "group_operators": _group_operator_count(off.plan),
            },
            "wall_speedup": (off_wall / on_wall) if on_wall else None,
            "simulated_io_speedup": (off_sim / on_sim) if on_sim else None,
            "estimated_cost_speedup": (off_cost / on_cost)
            if on_cost
            else None,
        }
        payload["cases"].append(case)
        report.add_row(
            label,
            f"{on_wall * 1000:.1f}",
            f"{off_wall * 1000:.1f}",
            f"{on_sim:.1f}/{off_sim:.1f}",
            f"{on.plan.sort_count()}/{off.plan.sort_count()}",
            f"{(off_cost / on_cost):.2f}x" if on_cost else "-",
        )

        if case_id == "pruned_scan":
            touched = case["partitioned"]["partitions_touched"]
            if len(touched) >= 4:
                raise AssertionError(
                    f"pruned_scan touched every partition: {touched}"
                )
            if not on_sim < off_sim:
                raise AssertionError(
                    "pruning did not cut simulated I/O: "
                    f"{on_sim:.1f} vs {off_sim:.1f}"
                )
        elif case_id == "merge_order":
            # The acceptance pin, asserted in both directions.
            if not on.plan.find_all(OpKind.MERGE_EXCHANGE):
                raise AssertionError(
                    "merge_order lost its merge exchange:\n"
                    + on.plan.explain()
                )
            if on.plan.sort_count() != 0:
                raise AssertionError(
                    "merge exchange failed to eliminate the sort"
                )
            if off.plan.sort_count() < 1:
                raise AssertionError(
                    "single-stream plan avoided the sort it must pay"
                )
        elif case_id == "colocated_group":
            pushed = case["partitioned"]["group_operators"]
            if pushed != 4:
                raise AssertionError(
                    f"expected 4 per-partition group operators, saw {pushed}"
                )

    report.add_note(
        "byte-compared: partitioned vs single-stream rows per case "
        "(ordered queries compared in order)"
    )
    report.add_note(
        "speedups are simulated I/O and estimated cost; wall clock is "
        "reported honestly but partition workers share the GIL, so "
        "CPU-bound stages show no wall-time win in this engine"
    )
    report.data["json"] = payload
    return report


@experiment(
    "workload_feedback",
    "Workload loop: fleet replay, cardinality feedback, regression gate "
    "on a skewed 120-statement fleet",
)
def workload_feedback(
    runs: int = DEFAULT_RUNS, **_ignored
) -> ExperimentReport:
    """One feedback round over the skewed proving-ground fleet.

    Replays the fleet through a :class:`~repro.service.QueryService`,
    joins every plan node's estimated cardinality against the rows its
    operator actually produced, distills the misestimates into stats
    corrections (selectivity overrides keyed by predicate fingerprint,
    observed NDVs for group/distinct keys), applies them through
    ``Catalog.apply_feedback``, and replays again against the corrected
    statistics. The regression gate re-pins the incumbent plan for any
    statement whose plan changed and replayed worse.

    Asserted acceptance criteria: the overall q-error geometric mean
    strictly improves, no operator kind gets worse, rows are
    byte-identical across all three replays, and the regression log
    admits nothing (empty, or every entry ``incumbent-retained``).

    The machine-readable payload lands in ``BENCH_workload_ops.json``.
    """
    from repro.workload import (
        FleetRunner,
        build_skewed_database,
        build_skewed_fleet,
    )

    # 15 rounds x 8 statement classes = 120 statements; `runs` scales
    # the fleet up for longer soaks but never below the 100-statement
    # floor the workload loop is specified against.
    rounds = max(15, 3 * runs)
    database = build_skewed_database()
    fleet = build_skewed_fleet(rounds=rounds)

    with FleetRunner(database, fleet) as runner:
        outcome = runner.run_feedback_round()
        regression_log = list(runner.service.plan_regressions())
        stats = runner.service.stats()

    before = outcome.baseline.qerror()
    after = outcome.final.qerror()

    mismatches = outcome.mismatches()
    if mismatches:
        raise AssertionError(
            f"feedback changed result rows for {mismatches} — the loop "
            "may only touch estimates"
        )
    if not after.geomean < before.geomean:
        raise AssertionError(
            "feedback did not improve the q-error geomean "
            f"({before.geomean:.3f} -> {after.geomean:.3f})"
        )
    for kind, value in after.by_kind.items():
        baseline_value = before.by_kind.get(kind, 1.0)
        if value > baseline_value + 1e-9:
            raise AssertionError(
                f"operator kind {kind} got worse after feedback: "
                f"{baseline_value:.3f} -> {value:.3f}"
            )
    admitted = [
        record for record in regression_log
        if record.action != "incumbent-retained"
    ]
    if admitted:
        raise AssertionError(
            f"regression gate admitted {len(admitted)} regressed plans"
        )

    report = ExperimentReport(
        "workload_feedback",
        f"skewed fleet, {len(fleet)} statements over {rounds} rounds "
        "(one feedback round)",
        headers=(
            "operator", "q-error before", "q-error after", "change"
        ),
    )
    kinds = sorted(
        set(before.by_kind) | set(after.by_kind),
        key=lambda kind: -before.by_kind.get(kind, 1.0),
    )
    for kind in kinds:
        b = before.by_kind.get(kind, 1.0)
        a = after.by_kind.get(kind, 1.0)
        delta = "improved" if a < b - 1e-9 else "unchanged"
        report.add_row(kind, f"{b:.3f}", f"{a:.3f}", delta)
    report.add_row(
        "(overall geomean)",
        f"{before.geomean:.3f}",
        f"{after.geomean:.3f}",
        f"{before.geomean / after.geomean:.2f}x better",
    )
    report.add_note(
        f"{outcome.applied} stats corrections applied "
        f"({len(outcome.corrections.selectivity)} selectivity overrides, "
        f"{len(outcome.corrections.ndv)} column NDVs, "
        f"{len(outcome.corrections.joint_ndv)} joint NDVs); "
        f"{len(outcome.plan_changes)} plans changed on re-optimization"
    )
    report.add_note(
        f"regression gate: {len(outcome.regressions)} challengers "
        f"rejected, 0 admitted; service logged "
        f"{stats.plan_regressions} incumbent-retained entries"
    )
    report.add_note(
        "rows byte-identical across baseline, re-optimized, and gated "
        "final replays (asserted per statement)"
    )
    report.data["json_name"] = "workload_ops"
    report.data["json"] = {
        "experiment": "workload_feedback",
        "statements": len(fleet),
        "rounds": rounds,
        "observations": {"before": before.count, "after": after.count},
        "q_error": {
            "before": {
                "geomean": before.geomean,
                "mean": before.mean,
                "p95": before.p95,
                "worst": before.worst,
                "by_kind": before.by_kind,
            },
            "after": {
                "geomean": after.geomean,
                "mean": after.mean,
                "p95": after.p95,
                "worst": after.worst,
                "by_kind": after.by_kind,
            },
        },
        "corrections": {
            "applied": outcome.applied,
            "selectivity_overrides": len(outcome.corrections.selectivity),
            "column_ndvs": len(outcome.corrections.ndv),
            "joint_ndvs": len(outcome.corrections.joint_ndv),
        },
        "plan_changes": len(outcome.plan_changes),
        "regressions": {
            "rejected": len(outcome.regressions),
            "admitted": len(admitted),
            "log": [record._asdict() for record in regression_log],
        },
        "row_mismatches": mismatches,
    }
    return report
