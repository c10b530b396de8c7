"""The TPC-D generator as it drew through ``random.Random``'s methods.

``ReferenceTpcdGenerator`` is ``repro.tpcd.TpcdGenerator`` from before
its draws went through ``catalog.stats.bounded_draw``: every bounded
draw calls ``randrange``, ``randint`` or ``choice``. It is kept verbatim
apart from its name as the oracle for ``tests/tpcd/test_dbgen.py``,
which holds the generator's rows to it by ``repr``.
"""

from __future__ import annotations

import datetime
import decimal
import random
from typing import Iterator, List, Tuple

from repro.tpcd.dbgen import (
    BRANDS,
    CONTAINERS,
    END_DATE,
    NATIONS,
    PRIORITIES,
    REGIONS,
    SEGMENTS,
    SHIP_INSTRUCTIONS,
    SHIP_MODES,
    START_DATE,
    TYPES,
    _DATE_SPAN,
)

_CENT = decimal.Decimal("0.01")


def _money(value: float) -> decimal.Decimal:
    return decimal.Decimal(str(round(value, 2))).quantize(_CENT)


class ReferenceTpcdGenerator:
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

    def _rng(self, table: str) -> random.Random:
        return random.Random(f"{self.seed}:{table}")

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
        rng = self._rng("supplier")
        for key in range(1, self.suppliers + 1):
            yield (
                key,
                f"Supplier#{key:09d}",
                f"addr-{rng.randint(1, 999999)}",
                rng.randrange(len(NATIONS)),
                f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
                _money(rng.uniform(-999.99, 9999.99)),
                "supplier comment",
            )

    def customer_rows(self) -> Iterator[tuple]:
        rng = self._rng("customer")
        for key in range(1, self.customers + 1):
            yield (
                key,
                f"Customer#{key:09d}",
                f"addr-{rng.randint(1, 999999)}",
                rng.randrange(len(NATIONS)),
                f"{rng.randint(10, 34)}-{rng.randint(100, 999)}-{rng.randint(1000, 9999)}",
                _money(rng.uniform(-999.99, 9999.99)),
                rng.choice(SEGMENTS),
                "customer comment",
            )

    def part_rows(self) -> Iterator[tuple]:
        rng = self._rng("part")
        for key in range(1, self.parts + 1):
            yield (
                key,
                f"part {key} {rng.choice(TYPES).lower()}",
                f"Manufacturer#{rng.randint(1, 5)}",
                rng.choice(BRANDS),
                rng.choice(TYPES),
                rng.randint(1, 50),
                rng.choice(CONTAINERS),
                _money(900 + (key % 1000) * 0.1),
                "part comment",
            )

    def partsupp_rows(self) -> Iterator[tuple]:
        rng = self._rng("partsupp")
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
                    rng.randint(1, 9999),
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
        rng = self._rng("orders")
        # ``randint(a, b)`` is documented as ``randrange(a, b + 1)``: the
        # same draws, one call less per value.
        draw = rng.randrange
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
            cust_key = draw(1, self.customers + 1)
            order_date = order_dates[draw(0, _DATE_SPAN - 150)]
            line_count = draw(1, 8)
            total = decimal.Decimal("0.00")
            all_shipped = True
            any_shipped = False
            for line_number in range(1, line_count + 1):
                quantity = draw(1, 51)
                part_key = draw(1, self.parts + 1)
                supp_key = draw(1, self.suppliers + 1)
                extended = _money(quantity * (900 + (part_key % 1000) * 0.1))
                discount = cents[draw(0, 11)]
                tax = cents[draw(0, 9)]
                ship_date = order_date + days[draw(1, 122)]
                commit_date = order_date + days[draw(30, 91)]
                receipt_date = ship_date + days[draw(1, 31)]
                shipped = ship_date <= last_shipped
                if shipped:
                    any_shipped = True
                else:
                    all_shipped = False
                return_flag = (
                    rng.choice(["R", "A"]) if shipped and rng.random() < 0.4
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
                        rng.choice(SHIP_INSTRUCTIONS),
                        rng.choice(SHIP_MODES),
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
                    rng.choice(PRIORITIES),
                    f"Clerk#{draw(1, max(1, self.orders // 1000) + 1):09d}",
                    0,
                    "order comment",
                )
            )
        return orders, lineitems
