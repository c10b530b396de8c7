"""Seeded random schema and query generators for differential testing.

Extracted and generalized from the original hand-rolled fuzz fixture in
``tests/integration/test_fuzz_queries.py``. A :class:`SchemaGen` builds a
star-shaped :class:`SchemaSpec` (one fact table, a configurable number of
child/dimension tables, randomized key, index, and partitioning shapes); a
:class:`QueryGenerator` then produces :class:`QuerySpec` values over that
schema covering joins (inner and left outer), filters, grouping with
every aggregate kind, DISTINCT, mixed-direction ORDER BY, FETCH FIRST,
UNION [ALL] and derived tables.

Everything is driven by ``random.Random(seed)`` with no dependence on
set/dict iteration order or hash randomization, so a fixed seed yields
byte-identical SQL across runs and interpreters — pinned by
``tests/verify/test_gen.py``. Refactors that change the draw sequence
change fuzz coverage and must do so consciously (the pin will fail).

:class:`QuerySpec` is deliberately structured (tables, conjuncts, order
keys as separate fields) rather than a SQL string so that
:mod:`repro.verify.shrink` can delta-debug failures clause by clause.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

from repro.catalog import (
    Column,
    Index,
    PartitionSpec,
    TableSchema,
    hash_spec,
    range_spec,
)
from repro.sqltypes import DATE, INTEGER, varchar
from repro.storage import Database


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Knobs for schema and query generation.

    ``tables`` counts every table including the fact table; extra tables
    alternate between fk-children (joinable on the fact key) and
    dimensions (joinable on the fact's grouping column). ``row_scale``
    multiplies every table's row count (the CLI's ``--sf``).
    """

    tables: int = 3
    fact_rows: int = 30
    child_rows: int = 60
    dim_rows: int = 16
    row_scale: float = 1.0
    grp_domain: int = 4
    unions: bool = True
    derived: bool = True
    outer_joins: bool = True

    def scaled(self, count: int) -> int:
        return max(4, int(round(count * self.row_scale)))


# ----------------------------------------------------------------------
# Schema specification
# ----------------------------------------------------------------------


@dataclass
class TableSpec:
    """One generated table: schema, index shapes, and literal rows."""

    name: str
    columns: List[Column]
    rows: List[tuple]
    primary_key: Optional[Tuple[str, ...]] = None
    # (index name, columns, unique, clustered)
    indexes: List[Tuple[str, Tuple[str, ...], bool, bool]] = field(
        default_factory=list
    )
    role: str = "fact"  # fact | child | dim
    partitioning: Optional[PartitionSpec] = None

    @property
    def key_column(self) -> str:
        """The numeric join/order column for this table's role."""
        return {"fact": "id", "child": "rid", "dim": "g"}[self.role]

    @property
    def value_column(self) -> str:
        """The numeric aggregation column for this table's role."""
        return {"fact": "val", "child": "amt", "dim": "w"}[self.role]


@dataclass
class SchemaSpec:
    """A buildable database description (used by the shrinker to rebuild
    smaller databases with rows removed)."""

    tables: List[TableSpec]

    def build(self) -> Database:
        database = Database()
        for table in self.tables:
            database.create_table(
                TableSchema(
                    table.name,
                    list(table.columns),
                    primary_key=table.primary_key or (),
                    partitioning=table.partitioning,
                ),
                rows=list(table.rows),
            )
            for name, columns, unique, clustered in table.indexes:
                database.create_index(
                    Index.on(
                        name,
                        table.name,
                        list(columns),
                        unique=unique,
                        clustered=clustered,
                    )
                )
        return database

    def table(self, name: str) -> TableSpec:
        for table in self.tables:
            if table.name == name:
                return table
        raise KeyError(name)

    def with_rows(self, name: str, rows: Sequence[tuple]) -> "SchemaSpec":
        """A copy with ``name``'s rows replaced (shrinker support)."""
        tables = [
            replace(table, rows=list(rows))
            if table.name == name
            else table
            for table in self.tables
        ]
        return SchemaSpec(tables)

    @property
    def fact(self) -> TableSpec:
        return self.tables[0]

    def children(self) -> List[TableSpec]:
        return [t for t in self.tables if t.role == "child"]

    def dims(self) -> List[TableSpec]:
        return [t for t in self.tables if t.role == "dim"]


def generate_schema(seed: int, config: GenConfig = GenConfig()) -> SchemaSpec:
    """A seeded random star schema: fact table ``r`` plus children
    (``s``, ``s2``, ...) and dimensions (``u``, ``u2``, ...)."""
    # A str seed is hashed deterministically (sha512) regardless of
    # PYTHONHASHSEED; a tuple seed would not be.
    rng = random.Random(f"schema-{seed}")
    tables: List[TableSpec] = []

    fact_rows = config.scaled(config.fact_rows)
    grp_choices = list(range(config.grp_domain)) + [None]
    fact = TableSpec(
        name="r",
        columns=[
            Column("id", INTEGER, nullable=False),
            Column("grp", INTEGER),
            Column("val", INTEGER),
            # NOT NULL date: fuzzed date-part extraction (year(r.d))
            # gives computed items a non-arithmetic expression.
            Column("d", DATE, nullable=False),
        ],
        rows=[
            (
                i,
                rng.choice(grp_choices),
                rng.randint(0, 50),
                datetime.date(
                    1992 + i % 7, 1 + (i * 5) % 12, 1 + (i * 3) % 28
                ),
            )
            for i in range(fact_rows)
        ],
        primary_key=("id",),
        indexes=[("r_id", ("id",), True, True)],
        role="fact",
    )
    if rng.random() < 0.7:
        fact.indexes.append(("r_grp", ("grp",), False, False))
    tables.append(fact)

    child_count = 0
    dim_count = 0
    for extra in range(max(0, config.tables - 1)):
        if extra % 2 == 0:
            child_count += 1
            tables.append(_child_table(rng, config, fact_rows, child_count))
        else:
            dim_count += 1
            tables.append(_dim_table(rng, config, dim_count))
    _assign_partitioning(seed, tables)
    return SchemaSpec(tables)


def _assign_partitioning(seed: int, tables: List[TableSpec]) -> None:
    """Hash- or range-partition a random subset of the fact/child tables.

    Draws from an rng stream *independent* of the schema rng so adding
    partitioning did not perturb the historical row/index draw sequence:
    a fixed seed still yields the same rows, indexes, and SQL corpus —
    only the tables' physical layout gained variety. Partition columns
    are always the table's join key, so declared primary keys remain
    enforceable by the per-partition trees (all rows sharing a key
    prefix land in one partition).
    """
    rng = random.Random(f"partition-{seed}")
    for table in tables:
        if table.role == "dim":
            continue  # tiny tables: partitioning is pure overhead
        roll = rng.random()
        if roll < 0.45:
            continue
        key = "id" if table.role == "fact" else "rid"
        count = rng.choice((2, 3, 4))
        values = sorted({row[0] for row in table.rows})
        if roll < 0.75 or len(values) < count:
            table.partitioning = hash_spec([key], count)
        else:
            step = len(values) // count
            boundaries = [values[step * i] for i in range(1, count)]
            table.partitioning = range_spec([key], boundaries)


def _child_table(
    rng: random.Random, config: GenConfig, fact_rows: int, ordinal: int
) -> TableSpec:
    name = "s" if ordinal == 1 else f"s{ordinal}"
    tags = ["a", "b", "c"]
    composite_key = rng.random() < 0.4
    if composite_key:
        # (rid, seq) primary key: dense fk values, 1-3 rows per rid.
        rows = []
        for rid in range(config.scaled(config.child_rows) // 2):
            for seq in range(rng.randint(1, 3)):
                rows.append(
                    (rid, seq, rng.choice(tags), rng.randint(1, 20))
                )
        columns = [
            Column("rid", INTEGER, nullable=False),
            Column("seq", INTEGER, nullable=False),
            Column("tag", varchar(4)),
            Column("amt", INTEGER),
        ]
        primary_key: Optional[Tuple[str, ...]] = ("rid", "seq")
    else:
        # Heap of fk rows; rids range past the fact's max id so joins
        # see dangling foreign keys.
        rows = [
            (
                rng.randint(0, fact_rows + fact_rows // 2),
                rng.choice(tags),
                rng.randint(1, 20),
            )
            for _ in range(config.scaled(config.child_rows))
        ]
        columns = [
            Column("rid", INTEGER, nullable=False),
            Column("tag", varchar(4)),
            Column("amt", INTEGER),
        ]
        primary_key = None
    indexes = []
    if rng.random() < 0.8:
        indexes.append(
            (f"{name}_rid", ("rid",), False, rng.random() < 0.7)
        )
    return TableSpec(
        name=name,
        columns=columns,
        rows=rows,
        primary_key=primary_key,
        indexes=indexes,
        role="child",
    )


def _dim_table(
    rng: random.Random, config: GenConfig, ordinal: int
) -> TableSpec:
    name = "u" if ordinal == 1 else f"u{ordinal}"
    rows = [
        (i % config.grp_domain, rng.randint(0, 9))
        for i in range(config.scaled(config.dim_rows))
    ]
    return TableSpec(
        name=name,
        columns=[
            Column("g", INTEGER, nullable=False),
            Column("w", INTEGER),
        ],
        rows=rows,
        primary_key=None,
        indexes=[],
        role="dim",
    )


# ----------------------------------------------------------------------
# Query specification
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    """One generated query in clause-structured form.

    ``raw`` holds the full SQL for UNION/derived-table queries, which do
    not decompose into this clause structure; the shrinker treats those
    opaquely. For everything else ``sql()`` renders the clauses.
    """

    tables: Tuple[str, ...] = ()
    # alias -> ON condition text, for LEFT OUTER JOINed tables.
    outer_on: Tuple[Tuple[str, str], ...] = ()
    join_filters: Tuple[str, ...] = ()
    filters: Tuple[str, ...] = ()
    select: Tuple[str, ...] = ()
    group_by: Tuple[str, ...] = ()
    aggregates: Tuple[str, ...] = ()
    distinct: bool = False
    order_by: Tuple[Tuple[str, bool], ...] = ()  # (expression, descending)
    fetch_first: Optional[int] = None
    raw: Optional[str] = None

    def sql(self) -> str:
        if self.raw is not None:
            return self.raw
        outer = dict(self.outer_on)
        from_parts: List[str] = []
        for table in self.tables:
            if table in outer:
                from_parts.append(f" left join {table} on {outer[table]}")
            elif from_parts:
                from_parts.append(f", {table}")
            else:
                from_parts.append(table)
        select_list = list(self.group_by) + list(self.aggregates)
        if not select_list:
            select_list = list(self.select)
        prefix = "distinct " if self.distinct else ""
        sql = f"select {prefix}{', '.join(select_list)} from " + "".join(
            from_parts
        )
        conjuncts = list(self.join_filters) + list(self.filters)
        if conjuncts:
            sql += " where " + " and ".join(conjuncts)
        if self.group_by:
            sql += " group by " + ", ".join(self.group_by)
        if self.order_by:
            rendered = [
                expression + (" desc" if descending else "")
                for expression, descending in self.order_by
            ]
            sql += " order by " + ", ".join(rendered)
        if self.fetch_first is not None:
            sql += f" fetch first {self.fetch_first} rows only"
        return sql

    def clause_count(self) -> int:
        """Structural clause count — the shrinker's minimality measure."""
        if self.raw is not None:
            return self.raw.lower().count("select") + len(
                self.raw.lower().split(" order by ")
            ) - 1
        return (
            len(self.tables)
            + len(self.join_filters)
            + len(self.filters)
            + len(self.group_by)
            + len(self.aggregates)
            + int(self.distinct)
            + len(self.order_by)
            + int(self.fetch_first is not None)
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.sql()


# ----------------------------------------------------------------------
# Query generation
# ----------------------------------------------------------------------


class QueryGenerator:
    """Seeded random single-block/UNION/derived query generator over a
    generated :class:`SchemaSpec`."""

    def __init__(
        self,
        schema: SchemaSpec,
        seed: int,
        config: GenConfig = GenConfig(),
    ):
        self.schema = schema
        self.config = config
        self.rng = random.Random(f"query-{seed}")

    # -- public ---------------------------------------------------------

    def generate(self) -> QuerySpec:
        rng = self.rng
        children = self.schema.children()
        dims = self.schema.dims()
        if self.config.unions and children and rng.random() < 0.12:
            return self._generate_union()
        if self.config.derived and children and rng.random() < 0.12:
            return self._generate_derived()

        shapes = ["single", "single"]
        if children:
            shapes += ["join", "join"]
            if self.config.outer_joins:
                shapes.append("outer")
        if children and dims:
            shapes.append("triple")
        shape = rng.choice(shapes)

        fact = self.schema.fact
        tables: List[str] = [fact.name]
        outer_on: List[Tuple[str, str]] = []
        join_filters: List[str] = []
        columns = [
            f"{fact.name}.id",
            f"{fact.name}.grp",
            f"{fact.name}.val",
            f"{fact.name}.d",
        ]
        child = children[0] if children else None
        if shape in ("join", "outer", "triple"):
            tables.append(child.name)
            columns += [f"{child.name}.tag", f"{child.name}.amt"]
            join_condition = f"{fact.name}.id = {child.name}.rid"
            if rng.random() < 0.15:
                # Monotone-wrapped join key: same join semantics, but
                # the planner sees an expression equality instead of a
                # column equality.
                join_condition = f"{fact.name}.id + 1 = {child.name}.rid + 1"
            if shape == "outer":
                outer_on.append((child.name, join_condition))
            else:
                join_filters.append(join_condition)
        if shape == "triple":
            dim = dims[0]
            tables.append(dim.name)
            columns = [
                f"{fact.name}.id",
                f"{fact.name}.grp",
                f"{child.name}.amt",
                f"{dim.name}.w",
            ]
            join_filters.append(f"{fact.name}.grp = {dim.name}.g")

        filters = self._filters(shape, child)
        group_by, select, aggregates, order_candidates = self._select(
            shape, columns
        )
        distinct = bool(
            not group_by and not aggregates and rng.random() < 0.2
        )
        order_by: Tuple[Tuple[str, bool], ...] = ()
        fetch_first = None
        if order_candidates and rng.random() < 0.8:
            count = rng.randint(1, min(2, len(order_candidates)))
            keys = rng.sample(order_candidates, count)
            order_by = tuple(
                (key, rng.random() < 0.4) for key in keys
            )
            if rng.random() < 0.25:
                fetch_first = rng.randint(1, 8)
        return QuerySpec(
            tables=tuple(tables),
            outer_on=tuple(outer_on),
            join_filters=tuple(join_filters),
            filters=tuple(filters),
            select=tuple(select),
            group_by=tuple(group_by),
            aggregates=tuple(aggregates),
            distinct=distinct,
            order_by=order_by,
            fetch_first=fetch_first,
        )

    # -- internals ------------------------------------------------------

    def _filters(self, shape: str, child) -> List[str]:
        rng = self.rng
        fact = self.schema.fact.name
        domain = self.config.grp_domain
        options = [
            f"{fact}.val > 25",
            f"{fact}.val between 10 and 40",
            f"{fact}.grp = {rng.randrange(domain)}",
            f"{fact}.grp is null",
            f"{fact}.grp is not null",
            f"{fact}.id < 20",
        ]
        if shape in ("join", "outer", "triple"):
            options += [
                f"{child.name}.amt > 10",
                f"{child.name}.tag in ('a', 'b')",
                f"{child.name}.tag = 'c'",
            ]
        return rng.sample(options, rng.randint(0, 2))

    def _select(self, shape: str, columns: List[str]):
        rng = self.rng
        if rng.random() < 0.4:
            # Aggregation query: group on non-value columns.
            group_by = rng.sample(
                [c for c in columns if "amt" not in c and "val" not in c],
                rng.randint(1, 2),
            )
            value = next(
                (c for c in columns if c.endswith(".amt")),
                f"{self.schema.fact.name}.val",
            )
            aggregates = rng.sample(
                [
                    "count(*) as n",
                    f"sum({value}) as total",
                    f"min({value}) as lo",
                    f"max({value}) as hi",
                    f"avg({value}) as mean",
                    f"count(distinct {value}) as nd",
                ],
                rng.randint(1, 2),
            )
            order_candidates = group_by + [
                a.split(" as ")[1] for a in aggregates
            ]
            return group_by, [], aggregates, order_candidates
        chosen = rng.sample(columns, rng.randint(1, len(columns)))
        order_candidates = list(chosen)
        if rng.random() < 0.35:
            # Computed select item, orderable via its alias: exercises
            # the computed-column FD ({r.val} -> {vplus}) and the
            # post-projection sort fallback.
            fact = self.schema.fact.name
            derived = [
                (f"{fact}.val + 3 as vplus", "vplus"),
                (f"2 * {fact}.val as vdub", "vdub"),
                (f"30 - {fact}.id as idrev", "idrev"),
                (f"year({fact}.d) as dy", "dy"),
                (f"month({fact}.d) as dm", "dm"),
            ]
            if shape in ("join", "outer", "triple"):
                child = self.schema.children()[0].name
                derived.append((f"{child}.amt + 5 as aplus", "aplus"))
            item, alias = rng.choice(derived)
            chosen = chosen + [item]
            order_candidates.append(alias)
        return [], chosen, [], order_candidates

    def _generate_union(self) -> QuerySpec:
        rng = self.rng
        fact = self.schema.fact.name
        child = self.schema.children()[0].name
        all_kw = " all" if rng.random() < 0.5 else ""
        left = rng.choice(
            [f"select id, val from {fact}", f"select rid, amt from {child}"]
        )
        rights = [
            f"select rid, amt from {child} where amt > 5",
            f"select id, val from {fact} where val < 30",
        ]
        if self.schema.dims():
            rights.append(f"select g, w from {self.schema.dims()[0].name}")
        right = rng.choice(rights)
        sql = f"{left} union{all_kw} {right}"
        if rng.random() < 0.7:
            direction = " desc" if rng.random() < 0.4 else ""
            sql += f" order by 1{direction}, 2"
        return QuerySpec(raw=sql)

    def _generate_derived(self) -> QuerySpec:
        rng = self.rng
        fact = self.schema.fact.name
        child = self.schema.children()[0].name
        view = rng.choice(
            [
                f"(select rid, count(*) as n, sum(amt) as total "
                f"from {child} group by rid)",
                f"(select distinct tag, rid from {child})",
                f"(select grp, max(val) as hi from {fact} group by grp)",
                # Computed view columns: the first merges into the
                # parent block, the second stays derived behind its
                # GROUP BY.
                f"(select rid, amt + 1 as a1 from {child})",
                f"(select val + 1 as g2, count(*) as n2 "
                f"from {fact} group by val)",
            ]
        )
        if "g2" in view:
            columns = ["v.g2", "v.n2"]
        elif "a1" in view:
            columns = ["v.rid", "v.a1"]
        elif "as n" in view:
            columns = ["v.rid", "v.n", "v.total"]
        elif "tag" in view:
            columns = ["v.tag", "v.rid"]
        else:
            columns = ["v.grp", "v.hi"]
        chosen = rng.sample(columns, rng.randint(1, len(columns)))
        sql = f"select {', '.join(chosen)} from {view} v"
        if rng.random() < 0.5 and "v.rid" in columns:
            sql = (
                f"select {fact}.id, {', '.join(chosen)} from {view} v, "
                f"{fact} where v.rid = {fact}.id"
            )
            chosen = [f"{fact}.id"] + chosen
        if rng.random() < 0.7:
            key = rng.choice(chosen)
            direction = " desc" if rng.random() < 0.4 else ""
            sql += f" order by {key}{direction}"
        return QuerySpec(raw=sql)
