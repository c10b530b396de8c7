"""Quickstart: build a database, run SQL, inspect plans.

Run:  python examples/quickstart.py
"""

import random

from repro import (
    Column,
    Database,
    Index,
    OptimizerConfig,
    TableSchema,
    run_query,
)
from repro.sqltypes import INTEGER, varchar


def build_database() -> Database:
    """A small employees/departments schema with keys and indexes."""
    rng = random.Random(2024)
    db = Database()
    db.create_table(
        TableSchema(
            "dept",
            [
                Column("id", INTEGER, nullable=False),
                Column("name", varchar(20), nullable=False),
            ],
            primary_key=("id",),
        ),
        rows=[(i, f"dept-{i}") for i in range(20)],
    )
    db.create_table(
        TableSchema(
            "emp",
            [
                Column("id", INTEGER, nullable=False),
                Column("dept_id", INTEGER, nullable=False),
                Column("salary", INTEGER),
                Column("level", INTEGER),
            ],
            primary_key=("id",),
        ),
        rows=[
            (i, rng.randrange(20), rng.randint(40, 200) * 1000, rng.randint(1, 5))
            for i in range(5000)
        ],
    )
    db.create_index(Index.on("pk_dept", "dept", ["id"], unique=True, clustered=True))
    db.create_index(Index.on("pk_emp", "emp", ["id"], unique=True, clustered=True))
    db.create_index(Index.on("emp_dept", "emp", ["dept_id"], clustered=False))
    return db


def main() -> None:
    db = build_database()

    print("=" * 72)
    print("1. A simple ordered query — the key index makes the sort free")
    print("=" * 72)
    result = run_query(db, "select id, salary from emp where level = 3 order by id")
    print(result.plan.explain())
    print(f"-> {len(result.rows)} rows, first 3: {result.rows[:3]}")
    print(f"-> sorts in plan: {result.plan.sort_count()}")
    print()

    print("=" * 72)
    print("2. Join + GROUP BY + ORDER BY — one sort can serve several masters")
    print("   (sort/merge/NLJ repertoire, as in 1996's DB2)")
    print("=" * 72)
    # Note the clause order: GROUP BY leads with level, ORDER BY wants
    # name — only the degrees-of-freedom machinery (paper §7) can see
    # that one sort on (name, level) serves both.
    sql = (
        "select d.name, e.level, sum(e.salary) as payroll "
        "from dept d, emp e where d.id = e.dept_id "
        "group by e.level, d.name order by d.name"
    )
    sort_based = OptimizerConfig(enable_hash=False)
    result = run_query(db, sql, config=sort_based)
    print(result.plan.explain())
    print(f"-> {len(result.rows)} rows, top: {result.rows[0]}")
    print()

    print("=" * 72)
    print("3. The same query with order optimization disabled (the paper's")
    print("   Section 8 baseline) — watch the extra sorts appear")
    print("=" * 72)
    disabled = OptimizerConfig.disabled()
    disabled.enable_hash = False
    baseline = run_query(db, sql, config=disabled)
    print(baseline.plan.explain())
    print(
        f"-> identical answers: {baseline.rows == result.rows}; "
        f"sorts: {baseline.plan.sort_count()} vs {result.plan.sort_count()}"
    )
    print()

    print("=" * 72)
    print("4. Redundancy elimination — sorting on a constant-bound column")
    print("=" * 72)
    sql = (
        "select id, level, salary from emp "
        "where level = 2 order by level, id"
    )
    result = run_query(db, sql)
    print(result.plan.explain())
    print(
        "-> ORDER BY (level, id) reduced to (id): level is bound to the "
        "constant 2"
    )


if __name__ == "__main__":
    main()
