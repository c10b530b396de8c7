"""Stream property containers.

Section 5.2.1 lists the properties order optimization cares about: the
order property, predicate property, key property, and FD property. This
module defines their containers; propagation rules live next door.

Design note: a key contributes ``K -> all columns``, but "all columns"
changes as joins widen the stream, so key FDs are *not* stored inside the
explicit FD set. Instead keys live in :class:`KeyProperty` and are folded
in when a :class:`~repro.core.context.OrderContext` is assembled, and
converted to explicit-tail FDs when they stop being keys (e.g. the m:n
join case).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import FrozenSet, Iterable, List, Set, Tuple

from repro.core.context import OrderContext
from repro.core.equivalence import EquivalenceClasses
from repro.core.fd import FDSet, key_fd
from repro.core.instrument import count
from repro.core.od import EMPTY_ODS, ODSet
from repro.core.ordering import OrderSpec
from repro.expr.nodes import ColumnRef, Expression
from repro.expr.schema import RowSchema

ColumnSet = FrozenSet[ColumnRef]


class KeyProperty:
    """The key property: a set of candidate keys, or the one-record flag.

    Per the paper, when some key becomes fully bound by equality
    predicates the whole property collapses to the *one-record
    condition*: at most one record flows, every order is trivially
    satisfied, and every column set is a key.
    """

    def __init__(self, keys: Iterable[Iterable[ColumnRef]] = (), one_record: bool = False):
        self.one_record = one_record
        normalized: List[ColumnSet] = []
        if not one_record:
            for key in keys:
                key_set = frozenset(key)
                if key_set and key_set not in normalized:
                    normalized.append(key_set)
        self.keys: Tuple[ColumnSet, ...] = tuple(normalized)

    @classmethod
    def one_record_condition(cls) -> "KeyProperty":
        return cls(one_record=True)

    def is_empty(self) -> bool:
        return not self.one_record and not self.keys

    def simplified(self, context: OrderContext) -> "KeyProperty":
        """Canonicalize keys: head substitution, constant removal,
        superset pruning, and one-record detection (Section 5.2.1)."""
        if self.one_record:
            return self
        rewritten: List[ColumnSet] = []
        for key in self.keys:
            heads = {
                context.equivalences.head(column)
                for column in key
            }
            remaining = frozenset(
                column for column in heads if not context.is_constant(column)
            )
            if not remaining:
                # Fully qualified by equality predicates: one record.
                return KeyProperty.one_record_condition()
            rewritten.append(remaining)
        # Remove keys that are supersets of other keys ("<=" on keys).
        minimal: List[ColumnSet] = []
        for key in sorted(rewritten, key=len):
            if not any(kept <= key for kept in minimal):
                minimal.append(key)
        return KeyProperty(minimal)

    def union(self, other: "KeyProperty") -> "KeyProperty":
        if self.one_record or other.one_record:
            return KeyProperty.one_record_condition()
        return KeyProperty(self.keys + other.keys)

    def concatenated_with(self, other: "KeyProperty") -> "KeyProperty":
        """All pairwise concatenations K1 ∪ K2 — the m:n join case."""
        if self.one_record:
            return other
        if other.one_record:
            return self
        pairs = [
            mine | theirs for mine in self.keys for theirs in other.keys
        ]
        return KeyProperty(pairs)

    def projected(self, columns: Set[ColumnRef]) -> "KeyProperty":
        """Keys surviving a projection: any key losing a column is gone."""
        if self.one_record:
            return self
        return KeyProperty(
            key for key in self.keys if key <= columns
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KeyProperty)
            and self.one_record == other.one_record
            and set(self.keys) == set(other.keys)
        )

    def __hash__(self) -> int:
        return hash((self.one_record, frozenset(self.keys)))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.one_record:
            return "KeyProperty(one-record)"
        rendered = [
            "{" + ", ".join(sorted(str(column) for column in key)) + "}"
            for key in self.keys
        ]
        return "KeyProperty(" + ", ".join(rendered) + ")"


@dataclass(frozen=True)
class StreamProperties:
    """Everything the optimizer knows about a stream.

    Attributes:
        schema: column layout of records in the stream.
        order: the stream's order property (may be empty).
        key_property: candidate keys / one-record condition.
        fds: explicit-tail FDs (keys are kept separately, see module doc).
        equivalences: column equivalence classes from applied predicates.
        constants: columns bound to constants by applied predicates.
        predicates: applied predicate conjuncts (the predicate property).
        cardinality: estimated number of records.
        ods: order dependencies among the stream's columns (empty
            unless ``use_order_dependencies`` harvesting is on).
    """

    schema: RowSchema
    order: OrderSpec = OrderSpec()
    key_property: KeyProperty = KeyProperty()
    fds: FDSet = FDSet()
    equivalences: EquivalenceClasses = None  # type: ignore[assignment]
    constants: ColumnSet = frozenset()
    predicates: FrozenSet[Expression] = frozenset()
    cardinality: float = 0.0
    ods: ODSet = EMPTY_ODS

    def __post_init__(self):
        if self.equivalences is None:
            object.__setattr__(self, "equivalences", EquivalenceClasses())

    def context(self) -> OrderContext:
        """Assemble the OrderContext reduction needs for this stream.

        Cached per instance: the optimizer asks for the same stream's
        context at every pruning comparison, and properties are frozen
        so the answer cannot change. The cache lives in ``__dict__``
        outside the dataclass fields, so ``dataclasses.replace`` (used
        by ``with_order`` etc.) never carries a stale context over.
        Contexts treat their equivalences as immutable (derivations
        copy-on-write), so no defensive copy is needed here.
        """
        count("stream.context_calls")
        cached = self.__dict__.get("_cached_context")
        if cached is not None:
            count("stream.context_memo_hits")
            return cached
        fds = self.fds
        if self.key_property.one_record:
            fds = fds.add(key_fd(()))
        else:
            for key in self.key_property.keys:
                fds = fds.add(key_fd(key))
        context = OrderContext(
            equivalences=self.equivalences,
            fds=fds,
            constants=self.constants,
            ods=self.ods,
        )
        object.__setattr__(self, "_cached_context", context)
        return context

    def content_key(self) -> Tuple:
        """A hashable digest of everything propagation can observe.

        Two property sets with equal content keys produce content-equal
        outputs under every propagation rule; ``propagate_join`` uses
        this to memoize. Cached per instance the same way as
        :meth:`context`.
        """
        cached = self.__dict__.get("_content_key")
        if cached is None:
            cached = (
                self.schema.columns,
                self.order,
                self.key_property,
                self.fds.as_frozenset(),
                self.equivalences.class_sets(),
                self.constants,
                self.predicates,
                self.cardinality,
                self.ods.as_frozenset(),
            )
            object.__setattr__(self, "_content_key", cached)
        return cached

    def with_order(self, order: OrderSpec) -> "StreamProperties":
        return replace(self, order=order)

    def with_cardinality(self, cardinality: float) -> "StreamProperties":
        return replace(self, cardinality=max(0.0, cardinality))

    def columns(self) -> Tuple[ColumnRef, ...]:
        return self.schema.columns
