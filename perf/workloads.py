"""The four workloads: statement templates, seeded generators, runners.

Each workload owns its statement templates (nothing here comes from
``repro.bench``) and talks to the program only through stable public
entry points: ``build_tpcd_database``, ``plan_query`` / ``execute`` /
``run_query`` and ``QueryService``. The ``--seed`` drives literals,
bindings and statement order only; the TPC-D data is always built from
the generator's fixed default seed, so a statement's result is a
function of its text and bindings alone.

Why these four (one stresses what the others bypass):

* ``adhoc_plan``  every arrival planned from scratch on a tiny database:
  parser / qgm / core / properties / cost / optimizer do the work.
* ``scan_agg``    scan + filter + aggregate through a one-worker service
  with a warm plan cache: expression kernels, heap scans, aggregation.
* ``order_join``  the paper's regime: order-sensitive joins planned once
  with host variables, executed cold: sorts, joins, probes, storage
  simulation; plan *quality* shows, plan *speed* sits in set-up.
* ``service_mixed``  dashboard replay from two closed-loop clients with
  periodic ``analyze_table``: the service layer itself (parameterize,
  cache, queue, locks, single-flight, invalidation) under contention.
"""

from __future__ import annotations

import datetime
import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.api import QueryResult, execute, plan_query, run_query
from repro.service import QueryService
from repro.storage import Database
from repro.tpcd import build_tpcd_database

SEGMENTS = ("AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD")
REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
SHIP_MODES = ("REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB")
SHIP_INSTRUCTIONS = (
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
)


@dataclass(frozen=True)
class Statement:
    """One generated arrival: its class, text and host-variable bindings."""

    cls: str
    sql: str
    params: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class Size:
    """How big one run of a workload is.

    ``repeat`` multiplies the per-pass class mix; the mix itself (the
    share of each statement class) never changes with size, so p50/p95
    sit in the same class at smoke and full size.
    """

    scale_factor: float
    pool_pages: int
    repeat: int


# ----------------------------------------------------------------------
# Literal draws (all randomness comes from the workload's seeded rng)
# ----------------------------------------------------------------------


class Strata:
    """Stratified literal draws for the ``count`` statements of a class.

    The k-th literal of statement ``i`` falls in stratum ``perm_k[i]``
    of ``count`` equal slices of its range, ``perm_k`` a seeded
    permutation. Every seed therefore covers each literal's range
    evenly - the work in a pass barely depends on the seed - while the
    values inside a stratum and the pairing of literals stay random.
    """

    def __init__(self, rng: random.Random, count: int):
        self.rng = rng
        self.count = count
        self._perms: List[List[int]] = []

    def stratum(self, index: int, position: int) -> int:
        while position >= len(self._perms):
            self._perms.append(self.rng.sample(range(self.count), self.count))
        return self._perms[position][index]


class Draw:
    """The literal source of one statement (see :class:`Strata`)."""

    def __init__(self, strata: Strata, index: int):
        self._strata = strata
        self._index = index
        self._position = 0

    def integer(self, low: int, high: int) -> int:
        strata = self._strata
        stratum = strata.stratum(self._index, self._position)
        self._position += 1
        width = high - low + 1
        return low + int((stratum + strata.rng.random()) * width / strata.count)

    def choice(self, options: Sequence[str]) -> str:
        return options[self.integer(0, len(options) - 1)]

    def month_start(self, first_year: int, last_year: int) -> datetime.date:
        month = self.integer(first_year * 12, last_year * 12 + 11)
        return datetime.date(month // 12, month % 12 + 1, 1)

    def window(self, months: int, first_year=1993, last_year=1996):
        start = self.month_start(first_year, last_year)
        return start, _plus_months(start, months)


def _plus_months(day: datetime.date, months: int) -> datetime.date:
    index = day.year * 12 + (day.month - 1) + months
    return datetime.date(index // 12, index % 12 + 1, 1)


def _lit(day: datetime.date) -> str:
    return f"date('{day.isoformat()}')"


# ----------------------------------------------------------------------
# Statement families. Literal-text families (planned or parameterized by
# the program per arrival) and host-variable families (planned once).
# ----------------------------------------------------------------------


def _q3_text(draw, _facts, cls: str = "q3") -> Statement:
    cut = datetime.date(1995, 3, draw.integer(1, 31))
    return Statement(
        cls,
        f"""select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev,
       o_orderdate, o_shippriority
from customer, orders, lineitem
where o_orderkey = l_orderkey and c_custkey = o_custkey
  and c_mktsegment = '{draw.choice(SEGMENTS)}'
  and o_orderdate < {_lit(cut)} and l_shipdate > {_lit(cut)}
group by l_orderkey, o_orderdate, o_shippriority
order by rev desc, o_orderdate""",
    )


def _q4_text(draw, _facts) -> Statement:
    lo, hi = draw.window(3)
    return Statement(
        "q4",
        f"""select o_orderpriority, count(*) as order_count
from orders, lineitem
where l_orderkey = o_orderkey
  and o_orderdate >= {_lit(lo)} and o_orderdate < {_lit(hi)}
  and l_receiptdate > l_commitdate
group by o_orderpriority
order by o_orderpriority""",
    )


def _q5_text(draw, _facts) -> Statement:
    lo, hi = draw.window(12)
    return Statement(
        "q5",
        f"""select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, nation
where c_custkey = o_custkey and l_orderkey = o_orderkey
  and c_nationkey = n_nationkey
  and o_orderdate >= {_lit(lo)} and o_orderdate < {_lit(hi)}
group by n_name
order by revenue desc""",
    )


def _q10_text(draw, _facts, cls: str = "q10") -> Statement:
    lo, hi = draw.window(3)
    return Statement(
        cls,
        f"""select c_custkey, c_name,
       sum(l_extendedprice * (1 - l_discount)) as revenue,
       c_acctbal, n_name
from customer, orders, lineitem, nation
where c_custkey = o_custkey and l_orderkey = o_orderkey
  and o_orderdate >= {_lit(lo)} and o_orderdate < {_lit(hi)}
  and l_returnflag = 'R' and c_nationkey = n_nationkey
group by c_custkey, c_name, c_acctbal, n_name
order by revenue desc""",
    )


def _chain5_text(draw, _facts) -> Statement:
    lo, hi = draw.window(6)
    return Statement(
        "chain5",
        f"""select n_name, count(*) as n, sum(l_extendedprice) as volume
from region, nation, customer, orders, lineitem
where r_regionkey = n_regionkey and n_nationkey = c_nationkey
  and c_custkey = o_custkey and o_orderkey = l_orderkey
  and r_name = '{draw.choice(REGIONS)}'
  and o_orderdate >= {_lit(lo)} and o_orderdate < {_lit(hi)}
group by n_name
order by n_name""",
    )


def _star_text(draw, _facts) -> Statement:
    # ORDER BY on three dimension columns: more than two interesting
    # orders reach the fact-table joins (sort-ahead territory).
    lo, hi = draw.window(1)
    return Statement(
        "star",
        f"""select o_orderdate, p_brand, s_name, l_quantity, l_extendedprice
from lineitem, orders, part, supplier
where l_orderkey = o_orderkey and l_partkey = p_partkey
  and l_suppkey = s_suppkey
  and o_orderdate >= {_lit(lo)} and o_orderdate < {_lit(hi)}
  and p_size < {draw.integer(15, 25)}
order by o_orderdate, p_brand, s_name""",
    )


def _derived_text(draw, _facts) -> Statement:
    # The outer ORDER BY is an order the view could deliver (§5.1 push).
    return Statement(
        "derived",
        f"""select g.o_custkey, g.total, c_name
from (select o_custkey, sum(o_totalprice) as total from orders
      where o_orderdate >= {_lit(draw.month_start(1993, 1996))}
      group by o_custkey) g, customer
where g.o_custkey = c_custkey and c_acctbal > {draw.integer(0, 4000)}
order by g.o_custkey""",
    )


def _union_text(draw, _facts) -> Statement:
    return Statement(
        "union",
        f"""select c_custkey as k, c_name as name from customer
where c_mktsegment = '{draw.choice(SEGMENTS)}' and c_acctbal > {draw.integer(2000, 6000)}
union
select s_suppkey as k, s_name as name from supplier
where s_acctbal > {draw.integer(2000, 6000)}
order by k, name""",
    )


def _od_year_text(draw, _facts) -> Statement:
    # year(o_orderdate) is a monotonic image of an indexed column: the
    # order-dependency harvest and its Test Order proofs run here.
    return Statement(
        "od_year",
        f"""select year(o_orderdate) as y, o_orderkey, o_totalprice
from orders
where o_orderdate >= {_lit(draw.month_start(1993, 1996))}
  and o_totalprice > {draw.integer(150, 250) * 1000}
order by y""",
    )


def _q1_text(draw, _facts) -> Statement:
    cut = datetime.date(1998, 9, 1) + datetime.timedelta(days=draw.integer(0, 90))
    return Statement(
        "q1",
        f"""select l_returnflag, l_linestatus,
       sum(l_quantity) as sum_qty, sum(l_extendedprice) as sum_base_price,
       sum(l_extendedprice * (1 - l_discount)) as sum_disc_price,
       avg(l_quantity) as avg_qty, avg(l_extendedprice) as avg_price,
       avg(l_discount) as avg_disc, count(*) as count_order
from lineitem
where l_shipdate <= {_lit(cut)}
group by l_returnflag, l_linestatus
order by l_returnflag, l_linestatus""",
    )


def _q6_text(draw, _facts) -> Statement:
    lo, hi = draw.window(12)
    low = draw.integer(2, 7)
    return Statement(
        "q6",
        f"""select sum(l_extendedprice * l_discount) as revenue
from lineitem
where l_shipdate >= {_lit(lo)} and l_shipdate < {_lit(hi)}
  and l_discount between 0.0{low} and 0.0{low + 2}
  and l_quantity < {draw.integer(24, 25)}""",
    )


def _disjunction_text(draw, _facts) -> Statement:
    return Statement(
        "disjunction",
        f"""select count(*) as n, sum(l_quantity) as qty
from lineitem
where (l_shipmode = '{draw.choice(SHIP_MODES)}' and l_quantity < {draw.integer(8, 12)})
   or (l_shipinstruct = '{draw.choice(SHIP_INSTRUCTIONS)}' and l_discount > 0.0{draw.integer(7, 8)})
   or l_receiptdate < {_lit(datetime.date(1992, draw.integer(4, 8), 1))}""",
    )


def _in_list_text(draw, _facts) -> Statement:
    # The dialect has no LIKE; two IN lists stand in for the issue's
    # IN/LIKE filter. The lists stay fixed (IN-list elements are never
    # parameterized, so rotating them would miss the plan cache) and
    # the quantity bound rotates.
    return Statement(
        "in_list",
        f"""select l_shipmode, count(*) as n, avg(l_extendedprice) as avg_price
from lineitem
where l_shipmode in ('AIR', 'RAIL', 'MAIL')
  and l_shipinstruct in ('DELIVER IN PERSON', 'COLLECT COD')
  and l_quantity >= {draw.integer(18, 22)}
group by l_shipmode
order by l_shipmode""",
    )


def _order_browse_text(draw, facts) -> Statement:
    return Statement(
        "order_browse",
        f"""select o_orderkey, o_orderdate, o_totalprice
from orders where o_custkey = {draw.integer(1, facts['customers'])}
order by o_orderdate desc""",
    )


def _q3_customer_text(draw, facts) -> Statement:
    return Statement(
        "q3_customer",
        f"""select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev,
       o_orderdate, o_shippriority
from customer, orders, lineitem
where o_orderkey = l_orderkey and c_custkey = o_custkey
  and c_custkey = {draw.integer(1, facts['customers'])}
  and o_orderdate < date('1995-03-15') and l_shipdate > date('1995-03-15')
group by l_orderkey, o_orderdate, o_shippriority
order by rev desc, o_orderdate""",
    )


def _q10_rollup_text(draw, facts) -> Statement:
    return _q10_text(draw, facts, cls="q10_rollup")


def _q3_rollup_text(draw, facts) -> Statement:
    return _q3_text(draw, facts, cls="q3_rollup")


# Host-variable templates for ``order_join``: (class, text, binder).

_JOIN_TEMPLATES: Tuple[Tuple[str, str, Callable], ...] = (
    (
        "q3",
        """select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev,
       o_orderdate, o_shippriority
from customer, orders, lineitem
where o_orderkey = l_orderkey and c_custkey = o_custkey
  and c_mktsegment = :seg and o_orderdate < :cut and l_shipdate > :cut
group by l_orderkey, o_orderdate, o_shippriority
order by rev desc, o_orderdate""",
        lambda draw: {
            "seg": draw.choice(SEGMENTS),
            "cut": datetime.date(1995, 3, draw.integer(1, 31)),
        },
    ),
    (
        "q10",
        """select c_custkey, c_name,
       sum(l_extendedprice * (1 - l_discount)) as revenue, c_acctbal, n_name
from customer, orders, lineitem, nation
where c_custkey = o_custkey and l_orderkey = o_orderkey
  and o_orderdate >= :lo and o_orderdate < :hi
  and l_returnflag = 'R' and c_nationkey = n_nationkey
group by c_custkey, c_name, c_acctbal, n_name
order by revenue desc""",
        lambda draw: dict(zip(("lo", "hi"), draw.window(3))),
    ),
    (
        "q5",
        """select n_name, sum(l_extendedprice * (1 - l_discount)) as revenue
from customer, orders, lineitem, nation
where c_custkey = o_custkey and l_orderkey = o_orderkey
  and c_nationkey = n_nationkey
  and o_orderdate >= :lo and o_orderdate < :hi
group by n_name
order by revenue desc""",
        lambda draw: dict(zip(("lo", "hi"), draw.window(12))),
    ),
    (
        "q4",
        """select o_orderpriority, count(*) as order_count
from orders, lineitem
where l_orderkey = o_orderkey
  and o_orderdate >= :lo and o_orderdate < :hi
  and l_receiptdate > l_commitdate
group by o_orderpriority
order by o_orderpriority""",
        lambda draw: dict(zip(("lo", "hi"), draw.window(3))),
    ),
    (
        # Figure 6's shape on TPC-D: one order on o_orderkey serves the
        # join, the GROUP BY (o_orderkey is a key, the other grouping
        # columns reduce away) and the ORDER BY.
        "sort_ahead",
        """select o_orderkey, o_orderdate, o_shippriority, sum(l_quantity) as qty
from orders, lineitem
where o_orderkey = l_orderkey
  and o_orderdate >= :lo and o_orderdate < :hi
group by o_orderkey, o_orderdate, o_shippriority
order by o_orderkey""",
        lambda draw: dict(zip(("lo", "hi"), draw.window(6))),
    ),
    (
        # The join delivers o_orderkey order; only the suffix needs
        # sorting (partial sort over the delivered prefix).
        "partial_sort",
        """select o_custkey, o_orderkey, l_linenumber, l_extendedprice
from orders, lineitem
where o_orderkey = l_orderkey
  and o_orderdate >= :lo and o_orderdate < :hi
order by o_orderkey, l_extendedprice desc""",
        lambda draw: dict(zip(("lo", "hi"), draw.window(6))),
    ),
)


def _host_variable_family(cls: str, sql: str, binder: Callable) -> Callable:
    """A statement family that binds one fixed text anew per arrival."""
    return lambda draw, _facts: Statement(cls, sql, binder(draw))


# ----------------------------------------------------------------------
# Runners: how one statement reaches the program
# ----------------------------------------------------------------------


class Runner:
    """Executes statements of one workload against one database.

    ``via_service`` tells the tracer the work happens on a worker
    thread; ``resets_io`` says whether each statement starts from
    zeroed pool counters (else ``QueryResult.io_stats`` is cumulative).
    """

    via_service = False
    resets_io = True

    def __init__(self, database: Database):
        self.database = database

    def run(self, statement: Statement) -> QueryResult:
        raise NotImplementedError

    def service_stats(self):
        return None

    def close(self) -> None:
        pass


class AdhocRunner(Runner):
    """Parse, optimize and execute every arrival; no plan cache."""

    def run(self, statement: Statement) -> QueryResult:
        return run_query(self.database, statement.sql)


class PlannedRunner(Runner):
    """Plans each class once (default ``OptimizerConfig()``), then
    executes the cached plan cold with the statement's bindings."""

    def __init__(self, database: Database, templates: Dict[str, str]):
        super().__init__(database)
        self.plans = {
            cls: plan_query(database, sql) for cls, sql in templates.items()
        }

    def run(self, statement: Statement) -> QueryResult:
        return execute(
            self.database,
            self.plans[statement.cls],
            cold_cache=True,
            parameters=statement.params,
        )


class ServiceRunner(Runner):
    """Submits to a ``QueryService`` and waits for the reply."""

    via_service = True
    resets_io = False

    def __init__(self, database: Database, workers: int, queue_depth: int = 64):
        super().__init__(database)
        self.service = QueryService(
            database, workers=workers, queue_depth=queue_depth
        )

    def run(self, statement: Statement) -> QueryResult:
        return self.service.submit(statement.sql).result()

    def service_stats(self):
        return self.service.stats()

    def close(self) -> None:
        self.service.close()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Workload:
    """A named statement mix plus the way it is driven.

    ``mix`` is the per-pass class mix as (family, count) pairs; a pass
    is ``size.repeat`` copies of it, shuffled per client. ``clients``
    closed-loop client threads each run their own list.
    """

    name = ""
    why = ""
    clients = 1
    size = Size(0.005, 256, 1)
    smoke = Size(0.002, 128, 1)
    mix: Tuple[Tuple[Callable, int], ...] = ()
    # Client 0 runs ``maintenance`` after every this many of its own
    # statements (0 = never).
    maintenance_every = 0

    def build_database(self, size: Size) -> Database:
        return build_tpcd_database(
            scale_factor=size.scale_factor, buffer_pool_pages=size.pool_pages
        )

    def generate(
        self, seed: int, size: Size, facts: Dict[str, int]
    ) -> List[List[Statement]]:
        """One statement list per client, a pure function of the seed."""
        lists = []
        for client in range(self.clients):
            rng = random.Random(f"{seed}:{self.name}:{client}")
            statements = []
            for family, count in self.mix:
                strata = Strata(rng, count * size.repeat)
                statements.extend(
                    family(Draw(strata, index), facts)
                    for index in range(strata.count)
                )
            rng.shuffle(statements)
            lists.append(statements)
        return lists

    def open(self, database: Database) -> Runner:
        raise NotImplementedError

    def maintenance(self, database: Database) -> None:
        pass


class AdhocPlan(Workload):
    name = "adhoc_plan"
    why = (
        "every arrival parsed and optimized from scratch on a tiny "
        "database, so the planner layers do nearly all the work"
    )
    # Everything fits the pool: execution is the small remainder.
    size = Size(0.002, 1024, 3)
    smoke = Size(0.002, 1024, 1)
    mix = tuple(
        (family, 1)
        for family in (
            _q3_text, _q4_text, _q5_text, _q10_text, _chain5_text,
            _star_text, _derived_text, _union_text, _od_year_text,
        )
    )

    def open(self, database: Database) -> Runner:
        return AdhocRunner(database)


class ScanAgg(Workload):
    name = "scan_agg"
    why = (
        "scan/filter/aggregate statements over a lineitem 2.4x the pool "
        "through a warm plan cache, so kernels and heap scans do the work"
    )
    size = Size(0.005, 256, 4)
    # Q1 is ~5x the others: a 1-in-11 share keeps p95 inside its class.
    mix = (
        (_q1_text, 1), (_q6_text, 4), (_disjunction_text, 3), (_in_list_text, 3),
    )

    def open(self, database: Database) -> Runner:
        return ServiceRunner(database, workers=1)


class OrderJoin(Workload):
    name = "order_join"
    why = (
        "the paper's order-sensitive join/group/order suite, planned once "
        "and executed cold, so sorts, joins, probes and simulated I/O do "
        "the work"
    )
    size = Size(0.005, 256, 8)
    mix = tuple(
        (_host_variable_family(*template), 1) for template in _JOIN_TEMPLATES
    )

    def open(self, database: Database) -> Runner:
        return PlannedRunner(
            database, {cls: sql for cls, sql, _binder in _JOIN_TEMPLATES}
        )


class ServiceMixed(Workload):
    name = "service_mixed"
    why = (
        "dashboard replay from two closed-loop clients with periodic "
        "analyze_table, so the service layer and contention are visible"
    )
    clients = 2
    size = Size(0.005, 256, 7)
    smoke = Size(0.002, 128, 7)
    # 3 of 16 statements are heavy rollups, so p95 sits inside them.
    mix = (
        (_order_browse_text, 9), (_q3_customer_text, 4),
        (_q10_rollup_text, 2), (_q3_rollup_text, 1),
    )
    # Once per pass of 2 x 112 statements, so about every 200 statements
    # overall: stats_version bumps and every class re-plans once.
    maintenance_every = 100

    def open(self, database: Database) -> Runner:
        return ServiceRunner(database, workers=2, queue_depth=64)

    def maintenance(self, database: Database) -> None:
        database.analyze_table("orders")


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (AdhocPlan(), ScanAgg(), OrderJoin(), ServiceMixed())
}


def statement_digest(lists: Sequence[Sequence[Statement]]) -> str:
    """Identity of a generated statement list (order-sensitive)."""
    digest = hashlib.sha256()
    for statements in lists:
        for statement in statements:
            digest.update(
                repr((statement.cls, statement.sql, statement.params)).encode()
            )
        digest.update(b"|")
    return digest.hexdigest()
