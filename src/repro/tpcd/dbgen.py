"""dbgen-style synthetic TPC-D data generator.

Deterministic (seeded) and scaled: scale factor 1.0 corresponds to the
official row counts (150k customers, 1.5M orders, ~6M lineitems); tests
and benchmarks use small fractions. Value distributions follow the spec
where the benchmark queries are sensitive to them.

Every bounded draw goes through ``below`` (``catalog.stats.bounded_draw``),
which returns what ``Random.randrange`` would: a ``randint`` over
``[a, b]`` is ``a + below(b - a + 1)`` and a ``choice`` from ``s`` is
``s[below(len(s))]``; ``random`` and ``uniform`` are the RNG's own. The
rows equal those of the generator that called ``randrange`` /
``randint`` / ``choice`` (``tests/tpcd/reference_dbgen.py``).
"""

from __future__ import annotations

import datetime
import decimal
import random
from typing import Callable, Iterable, Iterator, List, Tuple

from repro.catalog.stats import bounded_draw
from repro.storage import Database
from repro.tpcd.schema import tpcd_indexes, tpcd_schema

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECI", "5-LOW"]
SHIP_MODES = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"]
SHIP_INSTRUCTIONS = [
    "DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN",
]
RETURN_FLAGS = ["R", "A"]
CONTAINERS = ["SM CASE", "SM BOX", "MED BAG", "MED BOX", "LG CASE", "LG BOX"]
TYPES = [
    "STANDARD ANODIZED TIN", "SMALL PLATED COPPER", "MEDIUM BURNISHED BRASS",
    "LARGE BRUSHED STEEL", "ECONOMY POLISHED NICKEL", "PROMO ANODIZED ZINC",
]
BRANDS = [f"Brand#{m}{n}" for m in range(1, 6) for n in range(1, 6)]

START_DATE = datetime.date(1992, 1, 1)
END_DATE = datetime.date(1998, 8, 2)
_DATE_SPAN = (END_DATE - START_DATE).days

_CENT = decimal.Decimal("0.01")


def _money(value: float) -> decimal.Decimal:
    return decimal.Decimal(str(round(value, 2))).quantize(_CENT)


class TpcdGenerator:
    """Row generators for every TPC-D table at one scale factor."""

    def __init__(self, scale_factor: float = 0.01, seed: int = 19960604):
        if scale_factor <= 0:
            raise ValueError("scale factor must be positive")
        self.scale_factor = scale_factor
        self.seed = seed
        self.customers = max(5, int(150_000 * scale_factor))
        self.orders = max(10, int(1_500_000 * scale_factor))
        self.parts = max(5, int(200_000 * scale_factor))
        self.suppliers = max(2, int(10_000 * scale_factor))

    def _rng(self, table: str) -> Tuple[random.Random, Callable[[int], int]]:
        """The table's seeded RNG and its ``below``."""
        rng = random.Random(f"{self.seed}:{table}")
        return rng, bounded_draw(rng)

    # ------------------------------------------------------------------
    # Small tables
    # ------------------------------------------------------------------

    def region_rows(self) -> Iterator[tuple]:
        for key, name in enumerate(REGIONS):
            yield (key, name, f"region {name.lower()}")

    def nation_rows(self) -> Iterator[tuple]:
        for key, (name, region_key) in enumerate(NATIONS):
            yield (key, name, region_key, f"nation {name.lower()}")

    def supplier_rows(self) -> Iterator[tuple]:
        rng, below = self._rng("supplier")
        for key in range(1, self.suppliers + 1):
            yield (
                key,
                f"Supplier#{key:09d}",
                f"addr-{1 + below(999999)}",
                below(len(NATIONS)),
                f"{10 + below(25)}-{100 + below(900)}-{1000 + below(9000)}",
                _money(rng.uniform(-999.99, 9999.99)),
                "supplier comment",
            )

    def customer_rows(self) -> Iterator[tuple]:
        rng, below = self._rng("customer")
        for key in range(1, self.customers + 1):
            yield (
                key,
                f"Customer#{key:09d}",
                f"addr-{1 + below(999999)}",
                below(len(NATIONS)),
                f"{10 + below(25)}-{100 + below(900)}-{1000 + below(9000)}",
                _money(rng.uniform(-999.99, 9999.99)),
                SEGMENTS[below(len(SEGMENTS))],
                "customer comment",
            )

    def part_rows(self) -> Iterator[tuple]:
        _rng, below = self._rng("part")
        for key in range(1, self.parts + 1):
            yield (
                key,
                f"part {key} {TYPES[below(len(TYPES))].lower()}",
                f"Manufacturer#{1 + below(5)}",
                BRANDS[below(len(BRANDS))],
                TYPES[below(len(TYPES))],
                1 + below(50),
                CONTAINERS[below(len(CONTAINERS))],
                _money(900 + (key % 1000) * 0.1),
                "part comment",
            )

    def partsupp_rows(self) -> Iterator[tuple]:
        rng, below = self._rng("partsupp")
        suppliers_per_part = min(4, self.suppliers)
        for part_key in range(1, self.parts + 1):
            seen = set()
            for offset in range(suppliers_per_part):
                supp_key = (
                    (part_key + offset * (self.suppliers // 4 + 1))
                    % self.suppliers
                ) + 1
                if supp_key in seen:
                    continue  # tiny scale factors: avoid key collisions
                seen.add(supp_key)
                yield (
                    part_key,
                    supp_key,
                    1 + below(9999),
                    _money(rng.uniform(1.0, 1000.0)),
                    "partsupp comment",
                )

    # ------------------------------------------------------------------
    # Orders / lineitem
    # ------------------------------------------------------------------

    def order_and_lineitem_rows(
        self,
    ) -> Tuple[List[tuple], List[tuple]]:
        """Orders and their lineitems together (they share randomness).

        Lineitems come out in (l_orderkey, l_linenumber) order, so the
        clustered index on ``l_orderkey`` is physically clustered — the
        premise of Figure 7's ordered nested-loop join.
        """
        rng, below = self._rng("orders")
        # Every value a draw can pick, built once per call: equal
        # discounts (and taxes, and order dates) share one object.
        cents = [_money(cent / 100.0) for cent in range(11)]
        days = [datetime.timedelta(days=day) for day in range(122)]
        order_dates = [
            START_DATE + datetime.timedelta(days=day)
            for day in range(_DATE_SPAN - 150)
        ]
        last_shipped = END_DATE - datetime.timedelta(days=90)
        orders: List[tuple] = []
        lineitems: List[tuple] = []
        for order_key in range(1, self.orders + 1):
            cust_key = 1 + below(self.customers)
            order_date = order_dates[below(_DATE_SPAN - 150)]
            line_count = 1 + below(7)
            total = decimal.Decimal("0.00")
            all_shipped = True
            any_shipped = False
            for line_number in range(1, line_count + 1):
                quantity = 1 + below(50)
                part_key = 1 + below(self.parts)
                supp_key = 1 + below(self.suppliers)
                extended = _money(quantity * (900 + (part_key % 1000) * 0.1))
                discount = cents[below(11)]
                tax = cents[below(9)]
                ship_date = order_date + days[1 + below(121)]
                commit_date = order_date + days[30 + below(61)]
                receipt_date = ship_date + days[1 + below(30)]
                shipped = ship_date <= last_shipped
                if shipped:
                    any_shipped = True
                else:
                    all_shipped = False
                return_flag = (
                    RETURN_FLAGS[below(2)]
                    if shipped and rng.random() < 0.4
                    else "N"
                )
                line_status = "F" if shipped else "O"
                lineitems.append(
                    (
                        order_key,
                        part_key,
                        supp_key,
                        line_number,
                        quantity,
                        extended,
                        discount,
                        tax,
                        return_flag,
                        line_status,
                        ship_date,
                        commit_date,
                        receipt_date,
                        SHIP_INSTRUCTIONS[below(len(SHIP_INSTRUCTIONS))],
                        SHIP_MODES[below(len(SHIP_MODES))],
                        "lineitem comment",
                    )
                )
                total += extended
            status = "F" if all_shipped else ("O" if not any_shipped else "P")
            orders.append(
                (
                    order_key,
                    cust_key,
                    status,
                    total,
                    order_date,
                    PRIORITIES[below(len(PRIORITIES))],
                    f"Clerk#{1 + below(max(1, self.orders // 1000)):09d}",
                    0,
                    "order comment",
                )
            )
        return orders, lineitems


def build_tpcd_database(
    scale_factor: float = 0.01,
    seed: int = 19960604,
    buffer_pool_pages: int = 4096,
    with_indexes: bool = True,
) -> Database:
    """Create, index, and load a TPC-D database.

    Each table is created empty and its indexes declared before its
    rows are loaded, so ``StoredTable.load`` keys every tree from the
    rows and RIDs it holds instead of each index re-reading the heap.
    The stored trees equal those of indexes added after the load.
    """
    generator = TpcdGenerator(scale_factor, seed)
    database = Database(buffer_pool_pages)
    schemas = tpcd_schema()
    indexes = tpcd_indexes() if with_indexes else []

    def create(name: str, rows: Iterable[tuple]) -> None:
        store = database.create_table(schemas[name])
        for index in indexes:
            if index.table_name == name:
                database.create_index(index)
        store.load(rows)

    create("region", generator.region_rows())
    create("nation", generator.nation_rows())
    create("supplier", generator.supplier_rows())
    create("customer", generator.customer_rows())
    create("part", generator.part_rows())
    create("partsupp", generator.partsupp_rows())
    orders, lineitems = generator.order_and_lineitem_rows()
    create("orders", orders)
    create("lineitem", lineitems)
    database.reset_io(cold=True)
    return database
