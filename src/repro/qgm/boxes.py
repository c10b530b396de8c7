"""QGM boxes and quantifiers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.core.general import GeneralOrderSpec
from repro.core.ordering import OrderSpec
from repro.errors import QgmError
from repro.expr.nodes import Aggregate, ColumnRef, Expression


@dataclass
class SelectItem:
    """One output column of a box: an expression plus its exposed name.

    ``output`` is the column reference downstream consumers use. For a
    bare column it is the column itself (names flow through, as in
    Starburst); for computed expressions it is a synthetic reference
    qualified by the empty string, e.g. ``ColumnRef("", "rev")``.
    """

    expression: Expression
    name: str

    @property
    def output(self) -> ColumnRef:
        if isinstance(self.expression, ColumnRef):
            return self.expression
        return ColumnRef("", self.name)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if isinstance(self.expression, ColumnRef) and (
            self.expression.name == self.name
        ):
            return str(self.expression)
        return f"{self.expression} AS {self.name}"


class Quantifier:
    """An arc in the QGM graph: a named range over a table or a box."""

    def __init__(self, alias: str):
        if not alias:
            raise QgmError("quantifier needs an alias")
        self.alias = alias
        # Input order requirement (Section 5.1); GROUP BY sets this on
        # the quantifier feeding the group-by box.
        self.input_order: Optional[GeneralOrderSpec] = None


class BaseTableQuantifier(Quantifier):
    """A quantifier ranging over a base table."""

    def __init__(self, alias: str, table_name: str):
        super().__init__(alias)
        self.table_name = table_name

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Quantifier({self.alias} -> table {self.table_name})"


class BoxQuantifier(Quantifier):
    """A quantifier ranging over another box (view / nested block)."""

    def __init__(self, alias: str, box: "Box"):
        super().__init__(alias)
        self.box = box

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Quantifier({self.alias} -> {self.box!r})"


class Box:
    """Abstract QGM box."""

    def __init__(self):
        # Output order requirement — ORDER BY hangs here.
        self.output_order: OrderSpec = OrderSpec()
        # Interesting orders attached during the order scan; they double
        # as sort-ahead orders during planning (Section 5.1).
        self.interesting_orders: List[OrderSpec] = []
        # FETCH FIRST n ROWS ONLY on this box's output, if any.
        self.fetch_first: Optional[int] = None

    def quantifiers(self) -> Sequence[Quantifier]:
        raise NotImplementedError

    def output_items(self) -> Sequence[SelectItem]:
        raise NotImplementedError

    def output_columns(self) -> List[ColumnRef]:
        return [item.output for item in self.output_items()]


class SelectBox(Box):
    """SELECT box: projection + predicate over one or more quantifiers.

    Two or more quantifiers make it a join box. ``distinct`` corresponds
    to SELECT DISTINCT.
    """

    def __init__(
        self,
        quantifiers: Sequence[Quantifier],
        items: Sequence[SelectItem],
        predicate: Optional[Expression] = None,
        distinct: bool = False,
        outer_joins: Optional[dict] = None,
    ):
        super().__init__()
        if not quantifiers:
            raise QgmError("SELECT box needs at least one quantifier")
        if not items:
            raise QgmError("SELECT box needs at least one output item")
        self._quantifiers = list(quantifiers)
        self.items = list(items)
        self.predicate = predicate
        self.distinct = distinct
        # alias -> ON predicate, for quantifiers LEFT OUTER JOINed to
        # everything preceding them in FROM order.
        self.outer_joins: dict = dict(outer_joins or {})
        names = [quantifier.alias for quantifier in self._quantifiers]
        if len(set(names)) != len(names):
            raise QgmError(f"duplicate quantifier aliases: {names}")
        for alias in self.outer_joins:
            if alias not in names:
                raise QgmError(f"outer join on unknown alias {alias!r}")
            if alias == names[0]:
                raise QgmError("first FROM entry cannot be outer-joined")

    def quantifiers(self) -> Sequence[Quantifier]:
        return self._quantifiers

    def output_items(self) -> Sequence[SelectItem]:
        return self.items

    def is_join(self) -> bool:
        return len(self._quantifiers) > 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        aliases = ", ".join(q.alias for q in self._quantifiers)
        return f"SelectBox[{aliases}]"


class UnionBox(Box):
    """UNION / UNION ALL over two or more branch boxes.

    Branches must agree in arity; output item names come from the first
    branch. ``all_rows`` keeps duplicates; plain UNION deduplicates.
    ``output_order`` / ``fetch_first`` hold the trailing ORDER BY /
    FETCH FIRST, which govern the whole union. The optimizer plans a
    union needing dedupe, order or a row limit as a SELECT [DISTINCT]
    block over the UNION ALL of the same branches, so its DISTINCT,
    sort and Top-N are the ones every block gets.
    """

    def __init__(self, branches: Sequence[Box], all_rows: bool = False):
        super().__init__()
        if len(branches) < 2:
            raise QgmError("UNION needs at least two branches")
        arity = len(branches[0].output_items())
        for branch in branches[1:]:
            if len(branch.output_items()) != arity:
                raise QgmError("UNION branches must have equal arity")
        self.branches = list(branches)
        self.all_rows = all_rows

    def quantifiers(self) -> Sequence[Quantifier]:
        return ()

    def output_items(self) -> Sequence[SelectItem]:
        # Synthetic outputs named after the first branch, deduplicated.
        items = []
        seen = set()
        for index, item in enumerate(self.branches[0].output_items()):
            name = item.name
            if name in seen:
                name = f"c{index + 1}"
            seen.add(name)
            items.append(SelectItem(ColumnRef("", name), name))
        return items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "UNION ALL" if self.all_rows else "UNION"
        return f"UnionBox[{kind}, {len(self.branches)} branches]"


class GroupByBox(Box):
    """GROUP BY box over exactly one quantifier.

    ``group_columns`` come from the GROUP BY clause; ``aggregates`` are
    (name, Aggregate) pairs. Output items are the group columns followed
    by the aggregate outputs.
    """

    def __init__(
        self,
        quantifier: Quantifier,
        group_columns: Sequence[ColumnRef],
        aggregates: Sequence[Tuple[str, Aggregate]],
    ):
        super().__init__()
        self.quantifier = quantifier
        self.group_columns = list(group_columns)
        self.aggregates = list(aggregates)
        if not self.group_columns and not self.aggregates:
            raise QgmError("GROUP BY box needs group columns or aggregates")
        # The order-based implementation wants its input grouped: hang a
        # general (degrees-of-freedom) input order requirement off the
        # quantifier. Hash-based GROUP BY remains available to planning.
        if self.group_columns:
            quantifier.input_order = GeneralOrderSpec.from_group_by(
                self.group_columns
            )

    def quantifiers(self) -> Sequence[Quantifier]:
        return (self.quantifier,)

    def output_items(self) -> Sequence[SelectItem]:
        items = [
            SelectItem(column, column.name) for column in self.group_columns
        ]
        items.extend(
            SelectItem(aggregate, name) for name, aggregate in self.aggregates
        )
        return items

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(str(column) for column in self.group_columns)
        return f"GroupByBox[{inner}]"
