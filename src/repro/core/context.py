"""The reduction context: everything *Reduce Order* consumes.

A stream's applied predicates, keys, and inherited FDs collapse into one
:class:`OrderContext` holding

* an :class:`~repro.core.equivalence.EquivalenceClasses` partition, and
* an :class:`~repro.core.fd.FDSet` that already encodes constants
  (``{} -> {c}``) and keys (``K -> *``).

Equivalences are *not* materialized as pairwise FDs (the seed did, at
O(k^2) per class): :meth:`closure` hands the partition to the FD closure
machinery, which consults it directly. Contexts are cheap to build and
immutable by convention; the property machinery derives one per stream.

Immutability buys two things on top of safety:

* a content **fingerprint** (FDs + equivalence partition + constants),
  under which equal-content contexts share one memo table for the four
  algebra operations (see :mod:`repro.core.memo`) — results computed
  under one plan's context are cache hits under every equal sibling's;
* memo results never need invalidation — a context's answers are
  fixed at construction time.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Set

from repro.core.equivalence import EquivalenceClasses
from repro.core.fd import (
    FDSet,
    FunctionalDependency,
    _Closure,
    constant_fd,
    fd,
    key_fd,
)
from repro.core.instrument import count
from repro.core.memo import ContextMemo, memo_for
from repro.expr.analysis import PredicateFacts, analyze_predicates
from repro.expr.nodes import ColumnRef, Expression


class OrderContext:
    """Bundle of equivalence classes + FDs used by the order operations."""

    __slots__ = ("equivalences", "fds", "constants", "_fingerprint",
                 "_memo", "_constant_closure")

    def __init__(
        self,
        equivalences: Optional[EquivalenceClasses] = None,
        fds: Optional[FDSet] = None,
        constants: Iterable[ColumnRef] = (),
    ):
        self.equivalences = equivalences or EquivalenceClasses()
        self.constants: Set[ColumnRef] = set(constants)
        # Constants become uniform empty-headed FDs (as in the paper);
        # equivalences stay in the partition and are consulted by the
        # closure directly.
        fds = fds or FDSet()
        for column in self.constants:
            fds = fds.add(constant_fd(column))
        self.fds = fds
        self._fingerprint = None
        self._memo: Optional[ContextMemo] = None
        self._constant_closure: Optional[_Closure] = None
        count("context.builds")

    @classmethod
    def empty(cls) -> "OrderContext":
        return cls()

    @classmethod
    def from_predicates(
        cls,
        predicates: Iterable[Expression],
        keys: Iterable[Sequence[ColumnRef]] = (),
        extra_fds: Optional[FDSet] = None,
    ) -> "OrderContext":
        """Build a context from applied predicates and known keys."""
        facts = analyze_predicates(predicates)
        return cls.from_facts(facts, keys=keys, extra_fds=extra_fds)

    @classmethod
    def from_facts(
        cls,
        facts: PredicateFacts,
        keys: Iterable[Sequence[ColumnRef]] = (),
        extra_fds: Optional[FDSet] = None,
    ) -> "OrderContext":
        """Build a context from pre-mined predicate facts."""
        equivalences = EquivalenceClasses(facts.equalities)
        fds = extra_fds or FDSet()
        for key_columns in keys:
            fds = fds.add(key_fd(key_columns))
        return cls(
            equivalences=equivalences,
            fds=fds,
            constants=facts.constant_bindings.keys(),
        )

    # ------------------------------------------------------------------
    # Closure and memoization plumbing
    # ------------------------------------------------------------------

    def closure(self, columns: Iterable[ColumnRef] = ()) -> _Closure:
        """An incremental attribute closure under this context's facts.

        The returned closure already accounts for constants (their FDs
        are empty-headed and fire at construction) and consults the
        equivalence partition directly; grow it with ``extend``.
        """
        return self.fds.closure(columns, equivalences=self.equivalences)

    def fingerprint(self):
        """A hashable digest of this context's content.

        Two contexts with equal fingerprints answer every algebra
        question identically, so they share one memo table.
        """
        digest = self._fingerprint
        if digest is None:
            digest = (
                self.fds.as_frozenset(),
                self.equivalences.class_sets(),
                frozenset(self.constants),
            )
            self._fingerprint = digest
        return digest

    def memo(self) -> ContextMemo:
        """This context's memo tables (shared across equal contexts)."""
        memo = self._memo
        if memo is None:
            memo = memo_for(self.fingerprint())
            self._memo = memo
        return memo

    def materialized_fds(self) -> FDSet:
        """The FD set with pairwise equivalence FDs materialized.

        This is the seed's context representation — kept for the naive
        reference implementations (:mod:`repro.core.reference`) that the
        metamorphic tests compare against, and for callers that want a
        self-contained FDSet.
        """
        fds = self.fds
        for group in self.equivalences.classes():
            ordered = sorted(group, key=lambda c: (c.qualifier, c.name))
            for index, left in enumerate(ordered):
                for right in ordered[index + 1:]:
                    fds = fds.add(fd([left], [right]))
                    fds = fds.add(fd([right], [left]))
        return fds

    # ------------------------------------------------------------------
    # Derivation (contexts are immutable; derive, never mutate)
    # ------------------------------------------------------------------

    def with_key(self, key_columns: Sequence[ColumnRef]) -> "OrderContext":
        """A new context that additionally knows ``key_columns`` is a key."""
        return OrderContext(
            equivalences=self.equivalences,
            fds=self.fds.add(key_fd(key_columns)),
            constants=self.constants,
        )

    def with_fd(self, dependency: FunctionalDependency) -> "OrderContext":
        """A new context with one extra FD."""
        return OrderContext(
            equivalences=self.equivalences,
            fds=self.fds.add(dependency),
            constants=self.constants,
        )

    def with_equality(self, left: ColumnRef, right: ColumnRef) -> "OrderContext":
        """A new context that additionally knows ``left = right``."""
        # Copy-on-write: this is the one derivation that mutates the
        # partition, so it is the one that copies.
        equivalences = self.equivalences.copy()
        equivalences.add_equality(left, right)
        return OrderContext(
            equivalences=equivalences,
            fds=self.fds,
            constants=self.constants,
        )

    def with_constant(self, column: ColumnRef) -> "OrderContext":
        """A new context that additionally knows ``column = constant``."""
        return OrderContext(
            equivalences=self.equivalences,
            fds=self.fds,
            constants=self.constants | {column},
        )

    def merged_with(self, other: "OrderContext") -> "OrderContext":
        """Union of two contexts (e.g. both join inputs' contexts)."""
        return OrderContext(
            equivalences=self.equivalences.merged_with(other.equivalences),
            fds=self.fds.union(other.fds),
            constants=self.constants | other.constants,
        )

    def is_constant(self, column: ColumnRef) -> bool:
        """Whether ``column`` is bound to a constant (directly or via FDs)."""
        if column in self.constants:
            return True
        closure = self._constant_closure
        if closure is None:
            closure = self.closure(())
            self._constant_closure = closure
        return column in closure

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OrderContext(eq={self.equivalences!r}, fds={self.fds!r}, "
            f"constants={sorted(str(c) for c in self.constants)})"
        )
