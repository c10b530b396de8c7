"""Differential plan oracle: config-matrix execution diffing + auditing.

Three layers of checking, all returning :class:`Mismatch` records
instead of raising, so callers (pytest, the CLI, the shrinker) can
decide what a failure means:

* **Row-set diffing** — every query runs under an optimizer-config
  matrix (by default *all* feature-toggle combinations of
  reduction/cover/sort-ahead/hash-ops plus the paper's
  order-optimization-disabled baseline, not a hand-picked subset) and
  each result's row multiset is compared against the brute-force
  reference evaluator (:mod:`repro.verify.reference`).
* **Output-order checking** — ordered queries must come out physically
  sorted by their ORDER BY; with FETCH FIRST and ties any valid top-k is
  accepted by comparing the multiset of sort-key tuples instead of rows.
* **Property auditing** — every node of a chosen plan is re-executed in
  isolation and its claimed properties (candidate keys unique, FDs
  functional, order physically true, constants constant, one-record
  means ≤ 1 row) are checked against the rows it actually produced.
  This is the strongest guard against unsound reductions: a wrong key
  or FD would silently license removing a sort the data needs. The
  order scan's optimistic context (§5.1) is checked the same way, on
  the rows of the block's FROM + WHERE.

All comparisons use :func:`repro.sqltypes.values.sort_key` (NULLs high),
the same convention as the reference and the executor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api import execute, run_query
from repro.core.ordering import SortDirection
from repro.executor.build import build_operator
from repro.executor.context import (
    MODE_INTERPRETED,
    MODE_VECTOR,
    ExecutionContext,
)
from repro.optimizer import Optimizer, OptimizerConfig, Plan
from repro.optimizer.plan import PlanNode
from repro.optimizer.planner import PlannerContext
from repro.sqltypes.values import sort_key
from repro.storage import Database
from repro.verify.gen import GenConfig, QueryGenerator, SchemaSpec, generate_schema
from repro.verify.reference import join_box_rows, reference_query


# ----------------------------------------------------------------------
# Config matrices
# ----------------------------------------------------------------------

_MATRIX_AXES = (
    ("red", ("enable_reduction",)),
    ("cov", ("enable_cover",)),
    ("sa", ("enable_sort_ahead",)),
    ("hash", ("enable_hash_join", "enable_hash_group_by")),
    ("ps", ("enable_partial_sort",)),
)


def full_matrix(include_disabled: bool = True) -> Dict[str, OptimizerConfig]:
    """Every combination of reduction/cover/sort-ahead/hash-operators/
    partial-sort (32 configs), plus the paper's master-switch-off
    baseline. A config is named by its axes' flags, upper-cased when
    off (``redcovsaHASHps``). ``enable_partitioning`` is not an axis:
    it only adds access paths over partitioned tables, which no fuzzed
    plan chooses; :func:`tier1_matrix` keeps the one leg that would
    notice if that changed."""
    configs: Dict[str, OptimizerConfig] = {}
    for switches in itertools.product((False, True), repeat=len(_MATRIX_AXES)):
        name = ""
        fields = {}
        for (flag, names), on in zip(_MATRIX_AXES, switches):
            name += flag if on else flag.upper()
            fields.update(dict.fromkeys(names, on))
        configs[name] = OptimizerConfig(**fields)
    if include_disabled:
        configs["disabled"] = OptimizerConfig.disabled()
    return configs


def tier1_matrix() -> Dict[str, OptimizerConfig]:
    """The historical fuzz configs plus the partial-sort-off and
    partitioning-off builds — the cheap tier-1 subset."""
    return {
        "full": OptimizerConfig(),
        "disabled": OptimizerConfig.disabled(),
        "no-hash": OptimizerConfig(
            enable_hash_join=False, enable_hash_group_by=False
        ),
        "no-sortahead": OptimizerConfig(enable_sort_ahead=False),
        "no-partial-sort": OptimizerConfig(enable_partial_sort=False),
        "no-partitioning": OptimizerConfig(enable_partitioning=False),
    }


# ----------------------------------------------------------------------
# Mismatch records
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Mismatch:
    """One divergence between a configured run and the reference."""

    sql: str
    config: str
    kind: str  # rows | order | count | audit | error
    detail: str

    def __str__(self) -> str:
        return f"[{self.config}/{self.kind}] {self.sql!r}: {self.detail}"


def normalized(rows: Iterable[tuple]) -> List[tuple]:
    """Rows sorted by total-order sort keys, for multiset comparison."""
    return sorted(
        rows, key=lambda row: tuple(sort_key(value) for value in row)
    )


# ----------------------------------------------------------------------
# Output-order introspection
# ----------------------------------------------------------------------


def output_order_positions(
    database: Database, sql: str
) -> List[Tuple[int, bool]]:
    """(output position, descending) for each *visible* ORDER BY key.

    Keys on hidden (non-selected) columns are skipped — their effect is
    only observable through the visible prefix anyway.
    """
    from repro.parser import parse_query
    from repro.qgm import normalize, rewrite
    from repro.qgm.boxes import UnionBox

    box = rewrite(parse_query(sql, database.catalog))
    if isinstance(box, UnionBox):
        outputs = [item.output for item in box.output_items()]
        order = box.output_order
    else:
        block = normalize(box)
        outputs = []
        seen = set()
        for item in block.select_items:
            if item.output in seen:
                continue
            seen.add(item.output)
            outputs.append(item.output)
        order = block.order_by
    positions = {column: index for index, column in enumerate(outputs)}
    plan: List[Tuple[int, bool]] = []
    for key in order:
        if key.column not in positions:
            continue
        plan.append(
            (positions[key.column], key.direction is SortDirection.DESC)
        )
    return plan


def _order_violation(
    rows: Sequence[tuple], order_plan: Sequence[Tuple[int, bool]]
) -> Optional[str]:
    markers = [
        tuple(
            sort_key(row[position], descending)
            for position, descending in order_plan
        )
        for row in rows
    ]
    for index in range(1, len(markers)):
        if markers[index - 1] > markers[index]:
            return (
                f"rows {index - 1} and {index} out of order: "
                f"{rows[index - 1]!r} then {rows[index]!r}"
            )
    return None


# ----------------------------------------------------------------------
# Per-query differential check
# ----------------------------------------------------------------------


def check_query(
    database: Database,
    sql: str,
    configs: Optional[Dict[str, OptimizerConfig]] = None,
    audit_configs: Sequence[str] = (),
    expected: Optional[List[tuple]] = None,
    compare_exec_modes: bool = False,
) -> List[Mismatch]:
    """Run ``sql`` under every config and diff against the reference.

    ``expected`` short-circuits the reference evaluation (callers that
    batch-check the same query reuse it). ``audit_configs`` names matrix
    entries whose chosen plan additionally gets a full per-node property
    audit. ``compare_exec_modes`` re-executes each chosen plan under
    both executor engines (vector and interpreted, explicitly — so a
    global ``REPRO_EXEC`` override cannot make the check vacuous) and
    requires byte-identical rows in identical order.
    """
    if configs is None:
        configs = full_matrix()
    mismatches: List[Mismatch] = []
    try:
        if expected is None:
            expected = reference_query(database, sql)
        order_plan = output_order_positions(database, sql)
    except Exception as error:  # pragma: no cover - reference bugs
        return [
            Mismatch(sql, "reference", "error", f"{type(error).__name__}: {error}")
        ]
    fetch_limited = "fetch first" in sql.lower()

    for name, config in configs.items():
        try:
            result = run_query(database, sql, config=config)
        except Exception as error:
            mismatches.append(
                Mismatch(sql, name, "error", f"{type(error).__name__}: {error}")
            )
            continue
        rows = result.rows
        if order_plan:
            violation = _order_violation(rows, order_plan)
            if violation is not None:
                mismatches.append(Mismatch(sql, name, "order", violation))
        if fetch_limited and order_plan:
            # With ties at the cut-off any valid top-k is correct:
            # compare counts and the multiset of visible sort keys.
            if len(rows) != len(expected):
                mismatches.append(
                    Mismatch(
                        sql,
                        name,
                        "count",
                        f"{len(rows)} rows, expected {len(expected)}",
                    )
                )
            else:
                keys_of = lambda rs: sorted(
                    tuple(sort_key(row[p]) for p, _d in order_plan)
                    for row in rs
                )
                if keys_of(rows) != keys_of(expected):
                    mismatches.append(
                        Mismatch(
                            sql,
                            name,
                            "rows",
                            "top-k sort-key multiset differs from reference",
                        )
                    )
        elif fetch_limited:
            if len(rows) != len(expected):
                mismatches.append(
                    Mismatch(
                        sql,
                        name,
                        "count",
                        f"{len(rows)} rows, expected {len(expected)}",
                    )
                )
        else:
            if normalized(rows) != normalized(expected):
                mismatches.append(
                    Mismatch(
                        sql,
                        name,
                        "rows",
                        f"{len(rows)} rows vs {len(expected)} reference rows "
                        f"(multisets differ)\n{result.plan.explain()}",
                    )
                )
        if compare_exec_modes:
            divergence = _exec_mode_divergence(database, result.plan)
            if divergence is not None:
                mismatches.append(Mismatch(sql, name, "exec", divergence))
        if name in audit_configs:
            for violation in audit_plan(database, result.plan):
                mismatches.append(Mismatch(sql, name, "audit", violation))
    return mismatches


def _exec_mode_divergence(database: Database, plan: Plan) -> Optional[str]:
    """Run ``plan`` under both executor engines; describe any difference.

    The interpreter is the semantic reference the block engine is
    diffed against. The comparison is exact (list equality), not
    multiset: the engines must agree on row order too.
    """
    interpreted = execute(
        database,
        plan,
        context=ExecutionContext(database, mode=MODE_INTERPRETED),
    ).rows
    vector = execute(
        database, plan, context=ExecutionContext(database, mode=MODE_VECTOR)
    ).rows
    if vector == interpreted:
        return None
    if len(vector) != len(interpreted):
        return (
            f"vector produced {len(vector)} rows, interpreted "
            f"{len(interpreted)}\n{plan.explain()}"
        )
    for index, (left, right) in enumerate(zip(vector, interpreted)):
        if left != right:
            return (
                f"row {index} differs: vector {left!r} vs interpreted "
                f"{right!r}\n{plan.explain()}"
            )
    return f"vector rows differ\n{plan.explain()}"  # pragma: no cover


# ----------------------------------------------------------------------
# Plan property auditing (§5.2.1 against executed data)
# ----------------------------------------------------------------------


def walk(node: PlanNode):
    yield node
    for child in node.children:
        yield from walk(child)


def _marker(row, positions):
    return tuple(sort_key(row[p]) for p in positions)


def _functional(rows, schema, head, tail) -> bool:
    """Whether ``head -> tail`` holds on ``rows`` (an empty head: the
    tail is constant)."""
    head_positions = [schema.position(column) for column in head]
    tail_positions = [schema.position(column) for column in tail]
    mapping = {}
    for row in rows:
        value = _marker(row, tail_positions)
        if mapping.setdefault(_marker(row, head_positions), value) != value:
            return False
    return True


def audit_node(database: Database, node: PlanNode) -> List[str]:
    """Execute just ``node``'s subtree and check every claimed property
    against the rows it produced. Returns violation descriptions."""
    violations: List[str] = []
    operator = build_operator(node, database)
    rows = operator.execute(ExecutionContext(database))
    schema = node.properties.schema
    properties = node.properties

    if properties.key_property.one_record and len(rows) > 1:
        violations.append(f"one-record violated at {node.describe()}")
    for key in properties.key_property.keys:
        if not all(column in schema for column in key):
            continue  # key expressed on equivalence heads outside schema
        positions = [schema.position(column) for column in key]
        markers = [_marker(row, positions) for row in rows]
        if len(markers) != len(set(markers)):
            violations.append(
                f"key {sorted(map(str, key))} not unique at {node.describe()}"
            )

    for dependency in properties.fds:
        head = list(dependency.head)
        tail = list(dependency.tail)
        if not all(c in schema for c in head + tail):
            continue
        if not _functional(rows, schema, head, tail):
            violations.append(f"FD {dependency} violated at {node.describe()}")

    for column in properties.constants:
        if column in schema and not _functional(rows, schema, (), [column]):
            violations.append(
                f"constant {column} not constant at {node.describe()}"
            )

    if not properties.order.is_empty():
        plan_keys = [
            (
                schema.position(key.column),
                key.direction is SortDirection.DESC,
            )
            for key in properties.order
            if key.column in schema
        ]
        markers_sequence = [
            tuple(sort_key(row[p], d) for p, d in plan_keys) for row in rows
        ]
        if markers_sequence != sorted(markers_sequence):
            violations.append(
                f"order property {properties.order} violated at "
                f"{node.describe()}"
            )
    return violations


def audit_plan(database: Database, plan: Plan) -> List[str]:
    """Audit every node of ``plan`` (see :func:`audit_node`)."""
    violations: List[str] = []
    for node in walk(plan.root):
        violations.extend(audit_node(database, node))
    return violations


def audit_optimistic_context(
    database: Database, planner: PlannerContext
) -> List[str]:
    """Check the order scan's optimistic context (§5.1) on real rows.

    ``planner.optimistic`` claims facts about the block's join box with
    every predicate applied. Each FD (an ``ALL_COLUMNS`` tail means
    every column), constant and equivalence class must hold on the rows
    of the block's FROM + WHERE as the reference evaluator produces
    them. Columns the join box lacks (computed select outputs, the
    tails of their FDs) are skipped; :func:`audit_node` checks the FDs
    the final projection claims. Returns violation descriptions.
    """
    schema, rows = join_box_rows(database, planner.block)
    context = planner.optimistic
    violations: List[str] = []
    for dependency in context.fds:
        if not all(column in schema for column in dependency.head):
            continue
        if dependency.determines_all():
            tail = schema.columns
        else:
            tail = [column for column in dependency.tail if column in schema]
        if not _functional(rows, schema, dependency.head, tail):
            violations.append(f"optimistic FD {dependency} violated")
    for column in sorted(context.constants, key=str):
        if column in schema and not _functional(rows, schema, (), [column]):
            violations.append(f"optimistic constant {column} not constant")
    for group in context.equivalences.classes():
        members = [column for column in sorted(group, key=str) if column in schema]
        positions = [schema.position(column) for column in members]
        if any(len(set(_marker(row, positions))) > 1 for row in rows):
            names = ", ".join(map(str, members))
            violations.append(f"optimistic equivalence {{{names}}} violated")
    return violations


# ----------------------------------------------------------------------
# Fixed audit battery (the original property-validation fixture)
# ----------------------------------------------------------------------

AUDIT_QUERIES = (
    "select k, grp from d where grp = 3 order by k",
    "select d.k, d.grp, f.v from d, f where d.k = f.k order by d.k",
    "select d.grp, count(*) as n from d, f where d.k = f.k group by d.grp",
    "select d.k, f.seq, f.v from d, f where d.k = f.k and d.k = 5",
    "select distinct grp from d order by grp",
    "select d.k, f.v from d left join f on d.k = f.k order by d.k",
    "select k, grp from d order by k desc",
    "select d.grp, count(*) as n from d group by d.grp order by n desc, d.grp",
    # Computed items: the claimed FDs ({k} -> {k2}, {grp} -> {g2}) and
    # the orders they license get checked on real rows.
    "select k, k + 1 as k2 from d order by k2",
    "select grp, 2 * grp as g2, name from d order by grp desc, g2 desc",
)


def build_audit_database() -> Database:
    """The two-table schema the §5.2.1 audit battery runs against."""
    import random as _random

    from repro.catalog import Column, Index, TableSchema
    from repro.sqltypes import INTEGER, varchar

    rng = _random.Random(17)
    database = Database()
    database.create_table(
        TableSchema(
            "d",
            [
                Column("k", INTEGER, nullable=False),
                Column("grp", INTEGER),
                Column("name", varchar(8)),
            ],
            primary_key=("k",),
        ),
        rows=[(i, rng.randint(0, 6), f"n{i % 9}") for i in range(40)],
    )
    database.create_table(
        TableSchema(
            "f",
            [
                Column("k", INTEGER, nullable=False),
                Column("seq", INTEGER, nullable=False),
                Column("v", INTEGER),
            ],
            primary_key=("k", "seq"),
        ),
        rows=[
            (k, seq, rng.randint(0, 99))
            for k in range(50)
            for seq in range(rng.randint(1, 4))
        ],
    )
    database.create_index(
        Index.on("d_k", "d", ["k"], unique=True, clustered=True)
    )
    database.create_index(Index.on("f_k", "f", ["k"], clustered=True))
    return database


def audit_matrix() -> Dict[str, OptimizerConfig]:
    """Configs the audit battery planes under (sort-heavy + hash-heavy)."""
    return {
        "full": OptimizerConfig(),
        "no-hash": OptimizerConfig(
            enable_hash_join=False, enable_hash_group_by=False
        ),
    }


def run_audit_battery(
    configs: Optional[Dict[str, OptimizerConfig]] = None,
) -> List[Mismatch]:
    """Plan + audit every battery query under every config: each node of
    the chosen plan, and the top block's optimistic context."""
    database = build_audit_database()
    if configs is None:
        configs = audit_matrix()
    mismatches: List[Mismatch] = []
    for sql in AUDIT_QUERIES:
        for name, config in configs.items():
            optimizer = Optimizer(database, config)
            plan = optimizer.plan_sql(sql)
            violations = audit_plan(database, plan) + audit_optimistic_context(
                database, optimizer.last_planner
            )
            for violation in violations:
                mismatches.append(Mismatch(sql, name, "audit", violation))
    return mismatches


# ----------------------------------------------------------------------
# Fuzz driver
# ----------------------------------------------------------------------


@dataclass
class FuzzFailure:
    """One failing query with enough context to rebuild and shrink it."""

    schema: SchemaSpec
    spec: object  # QuerySpec
    mismatches: List[Mismatch]


@dataclass
class FuzzReport:
    queries: int = 0
    configs: int = 0
    executions: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        state = "ok" if self.ok else f"{len(self.failures)} FAILURES"
        return (
            f"{self.queries} queries x {self.configs} configs "
            f"({self.executions} executions): {state}"
        )


def run_fuzz(
    seed: int,
    n: int,
    gen_config: GenConfig = GenConfig(),
    configs: Optional[Dict[str, OptimizerConfig]] = None,
    audit_configs: Sequence[str] = (),
    batch: int = 25,
    compare_exec_modes: bool = False,
) -> FuzzReport:
    """Fuzz ``n`` queries under the config matrix, a fresh random schema
    every ``batch`` queries so index/key shapes vary within one run."""
    if configs is None:
        configs = full_matrix()
    report = FuzzReport(configs=len(configs))
    generated = 0
    batch_index = 0
    while generated < n:
        batch_seed = seed + 1009 * batch_index
        schema = generate_schema(batch_seed, gen_config)
        database = schema.build()
        generator = QueryGenerator(schema, batch_seed, gen_config)
        for _ in range(min(batch, n - generated)):
            spec = generator.generate()
            sql = spec.sql()
            mismatches = check_query(
                database,
                sql,
                configs,
                audit_configs=audit_configs,
                compare_exec_modes=compare_exec_modes,
            )
            report.queries += 1
            report.executions += len(configs)
            generated += 1
            if mismatches:
                report.failures.append(
                    FuzzFailure(schema, spec, mismatches)
                )
        batch_index += 1
    return report
