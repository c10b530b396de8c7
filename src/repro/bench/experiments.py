"""The paper's experiments, one registered function per table/figure.

Every experiment prints the paper's numbers next to ours. Absolute
magnitudes differ (their testbed was a 1 GB TPC-D database on an
RS/6000; ours is a Python engine at a small scale factor) — the
reproduced quantity is the *shape*: which plan wins, which operators
appear, and roughly what the on/off ratio is.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.catalog import Column, Index, TableSchema
from repro.optimizer import OptimizerConfig
from repro.storage import Database
from repro.api import execute, plan_query, run_query
from repro.bench.harness import ExperimentReport, experiment
from repro.optimizer.plan import OpKind
from repro.sqltypes import INTEGER
from repro.tpcd import QUERY_3, build_tpcd_database

DEFAULT_SCALE = 0.02
DEFAULT_RUNS = 5


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
        database, QUERY_3, OptimizerConfig.db2_faithful(True), runs
    )
    off_wall, off_sim, off_result = _timed_runs(
        database, QUERY_3, OptimizerConfig.db2_faithful(False), runs
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
    if on_result.rows != off_result.rows:
        raise AssertionError("result mismatch between the two builds")
    return report


# ----------------------------------------------------------------------
# Figure 1
# ----------------------------------------------------------------------


def figure1_database() -> Database:
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


FIGURE1_SQL = (
    "select a.y, sum(b.y) as total from a, b "
    "where a.x = b.x group by a.y"
)


@experiment("fig1", "Figure 1: QGM and QEP for the simple example query")
def fig1(**_ignored) -> ExperimentReport:
    from repro.parser import parse_query
    from repro.qgm import normalize, rewrite

    report = ExperimentReport(
        "fig1", "select a.y, sum(b.y) from a, b where a.x = b.x group by a.y"
    )
    database = figure1_database()
    box = rewrite(parse_query(FIGURE1_SQL, database.catalog))
    block = normalize(box)
    qgm_text = (
        f"SELECT box: quantifiers={sorted(block.tables)}, "
        f"predicate=[{block.predicate}]\n"
        f"GROUP BY box: columns={[str(c) for c in block.group_columns]}, "
        f"aggregates={[name for name, _ in block.aggregates]}"
    )
    report.add_block("QGM (normalized)", qgm_text)
    result = run_query(
        database, FIGURE1_SQL, config=OptimizerConfig.db2_faithful(True)
    )
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


def figure6_database() -> Database:
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
    database = figure6_database()
    baseline_rows = None
    for label, config in (
        ("order opt ON", OptimizerConfig.db2_faithful(True)),
        ("order opt OFF", OptimizerConfig.db2_faithful(False)),
    ):
        result = run_query(database, FIGURE6_SQL, config=config)
        if baseline_rows is None:
            baseline_rows = result.rows
        elif result.rows != baseline_rows:
            raise AssertionError(f"result mismatch under {label}")
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
        database,
        QUERY_3,
        config=OptimizerConfig.db2_faithful(order_optimization),
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
        "the paper bounds the factor by O(n^2); in practice n < 3 "
        "(Section 5.2). Only sort-ahead and merge joins pay for an extra "
        "order (nested-loop and hash join ignore the inner's), so growth "
        "here should be about linear and far inside that bound"
    )
    return report


# ----------------------------------------------------------------------
# Ablations (Section 8 discussion)
# ----------------------------------------------------------------------


def warehouse_database() -> Database:
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
    on = OptimizerConfig.db2_faithful(True)
    off = OptimizerConfig.db2_faithful(True)
    off.enable_reduction = False
    off.enable_general_orders = False
    return _ablation_report(
        "ablation_reduce",
        "grouping on key + dependents, ordering on constant-bound column",
        sql,
        warehouse_database(),
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
    on = OptimizerConfig.db2_faithful(True)
    off = OptimizerConfig.db2_faithful(True)
    off.enable_cover = False
    return _ablation_report(
        "ablation_cover",
        "GROUP BY {cat, region} + ORDER BY region",
        sql,
        warehouse_database(),
        [("cover ON", on), ("cover OFF", off)],
    )


@experiment(
    "ablation_sortahead",
    "Ablation: sort-ahead (pushing the sort below the join)",
)
def ablation_sortahead(
    scale_factor: float = DEFAULT_SCALE, **_ignored
) -> ExperimentReport:
    on = OptimizerConfig.db2_faithful(True)
    off = OptimizerConfig.db2_faithful(True)
    off.enable_sort_ahead = False
    return _ablation_report(
        "ablation_sortahead",
        "TPC-D Query 3 with and without sort-ahead",
        QUERY_3,
        tpcd_database(scale_factor),
        [("sort-ahead ON", on), ("sort-ahead OFF", off)],
    )


@experiment(
    "ablation_hash",
    "Extension: hash-based operators vs the 1996 sort-based repertoire",
)
def ablation_hash(
    scale_factor: float = DEFAULT_SCALE, **_ignored
) -> ExperimentReport:
    sort_based = OptimizerConfig.db2_faithful(True)
    with_hash = OptimizerConfig()  # hash join + hash group-by available
    return _ablation_report(
        "ablation_hash",
        "TPC-D Query 3: order-based vs hash-enabled optimizer",
        QUERY_3,
        tpcd_database(scale_factor),
        [("sort/merge/NLJ only", sort_based), ("hash enabled", with_hash)],
    )


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
    warehouse = warehouse_database()
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
            database, sql, OptimizerConfig.db2_faithful(True), runs
        )
        off_wall, _off_sim, off_result = _timed_runs(
            database, sql, OptimizerConfig.db2_faithful(False), runs
        )
        if sorted(map(str, on_result.rows)) != sorted(
            map(str, off_result.rows)
        ):
            raise AssertionError(f"result mismatch for {name}")
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
    plan = plan_query(
        database, QUERY_3, config=OptimizerConfig.db2_faithful(True)
    )
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
