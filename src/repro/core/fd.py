"""Functional dependencies and attribute-set closure.

Section 4.1 frames every order-relevant fact as a functional dependency:

* ``col = constant``      gives the empty-headed FD ``{} -> {col}``;
* ``x = y``               gives ``{x} -> {y}`` and ``{y} -> {x}``;
* a key ``K``             gives ``K -> {all columns}``;
* trivially ``{c} -> {c}``.

Reduction then asks one question repeatedly: *does this set of columns
functionally determine that column?* — answered here with the textbook
attribute-closure algorithm [Beeri & Bernstein '79, as cited via DD92].

The paper's premise (Sections 4-5) is that this question is cheap enough
to ask at every plan comparison inside join enumeration, so the closure
here is *indexed* and *incremental* rather than the textbook
while-something-changed loop:

* each :class:`FDSet` lazily builds a head-column index (column ->
  dependencies mentioning it in their head) and per-dependency
  missing-head counts;
* :class:`_Closure` supports :meth:`_Closure.extend` — adding one column
  propagates only through dependencies whose heads that column touches,
  so growing a closure across the k keys of an order specification costs
  one fixpoint total instead of k from-scratch fixpoints;
* equivalence classes are consulted directly (when a column enters the
  closure its whole class enters) instead of being materialized as
  O(k^2) pairwise FDs by every context.

``x = y`` predicates therefore usually never become explicit FDs: the
closure reads them straight from the
:class:`~repro.core.equivalence.EquivalenceClasses` partition the
caller passes in. The naive reference formulation lives in
:mod:`repro.core.reference` and the metamorphic tests pin the two
implementations together.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.instrument import count
from repro.errors import OrderError
from repro.expr.nodes import ColumnRef

ColumnSet = FrozenSet[ColumnRef]

# Marker used in the tail of a key FD meaning "every column of the stream".
# Keys determine all columns, including ones added later by joins, so the
# tail cannot be enumerated at FD-creation time.
ALL_COLUMNS = "*"


@dataclass(frozen=True)
class FunctionalDependency:
    """``head -> tail``; ``tail`` may be the ALL_COLUMNS marker for keys."""

    head: ColumnSet
    tail: object  # ColumnSet or the ALL_COLUMNS marker

    def __post_init__(self):
        if self.tail is not ALL_COLUMNS and not isinstance(self.tail, frozenset):
            raise OrderError(f"bad FD tail {self.tail!r}")

    def determines_all(self) -> bool:
        return self.tail is ALL_COLUMNS

    def is_empty_headed(self) -> bool:
        """Empty-headed FDs arise from ``col = constant`` predicates."""
        return not self.head

    def __str__(self) -> str:
        head = "{" + ", ".join(sorted(str(column) for column in self.head)) + "}"
        if self.determines_all():
            return f"{head} -> *"
        tail = "{" + ", ".join(sorted(str(column) for column in self.tail)) + "}"
        return f"{head} -> {tail}"


def fd(head: Iterable[ColumnRef], tail: Iterable[ColumnRef]) -> FunctionalDependency:
    """Shorthand constructor: ``fd([x], [y])`` is ``{x} -> {y}``."""
    return FunctionalDependency(frozenset(head), frozenset(tail))


def key_fd(key_columns: Iterable[ColumnRef]) -> FunctionalDependency:
    """The FD contributed by a key: ``K -> all columns``."""
    return FunctionalDependency(frozenset(key_columns), ALL_COLUMNS)


def constant_fd(column: ColumnRef) -> FunctionalDependency:
    """The empty-headed FD from ``column = constant``."""
    return FunctionalDependency(frozenset(), frozenset((column,)))


class FDSet:
    """An immutable-by-convention collection of functional dependencies.

    The only queries the order algebra needs are :meth:`closure` and
    :meth:`determines`; both treat ``K -> *`` FDs as determining every
    column whatsoever once the head is covered.

    Membership is set-backed (:meth:`add` and :meth:`union` dedup in
    O(1) per dependency, not by scanning), and the head-column index
    behind :meth:`closure` is built lazily exactly once per FDSet — the
    add/union chains the optimizer builds while merging contexts never
    pay for indexes they do not query.
    """

    __slots__ = ("_fds", "_members", "_index")

    def __init__(self, dependencies: Iterable[FunctionalDependency] = ()):
        deduped: List[FunctionalDependency] = []
        seen: Set[FunctionalDependency] = set()
        for dependency in dependencies:
            if dependency not in seen:
                seen.add(dependency)
                deduped.append(dependency)
        self._fds: Tuple[FunctionalDependency, ...] = tuple(deduped)
        self._members: FrozenSet[FunctionalDependency] = frozenset(seen)
        self._index = None

    @classmethod
    def _make(
        cls,
        dependencies: Tuple[FunctionalDependency, ...],
        members: FrozenSet[FunctionalDependency],
    ) -> "FDSet":
        """Internal constructor for pre-deduplicated content."""
        created = cls.__new__(cls)
        created._fds = dependencies
        created._members = members
        created._index = None
        return created

    @property
    def dependencies(self) -> Tuple[FunctionalDependency, ...]:
        return self._fds

    def as_frozenset(self) -> FrozenSet[FunctionalDependency]:
        """The dependencies as a set — context fingerprints hash this."""
        return self._members

    def add(self, dependency: FunctionalDependency) -> "FDSet":
        """A new FDSet with ``dependency`` appended (no-op if present)."""
        if dependency in self._members:
            return self
        return FDSet._make(
            self._fds + (dependency,), self._members | {dependency}
        )

    def union(self, other: "FDSet") -> "FDSet":
        # Fast paths: self-union and empty/subsumed operands allocate
        # nothing — merge chains in ``properties.propagate`` hit these
        # constantly (a join's sides usually share inherited FDs).
        if other is self or not other._fds:
            return self
        if not self._fds:
            return other
        if other._members <= self._members:
            return self
        merged = list(self._fds)
        for dependency in other._fds:
            if dependency not in self._members:
                merged.append(dependency)
        return FDSet._make(tuple(merged), self._members | other._members)

    def _head_index(self):
        """Lazily built closure support structures.

        Returns ``(by_column, head_sizes, empty_headed)`` where
        ``by_column`` maps each head column to the indices of the
        dependencies mentioning it, ``head_sizes[i]`` is
        ``len(self._fds[i].head)``, and ``empty_headed`` lists the
        indices of constant FDs (they fire unconditionally).
        """
        index = self._index
        if index is None:
            by_column: Dict[ColumnRef, List[int]] = {}
            head_sizes: List[int] = []
            empty_headed: List[int] = []
            for position, dependency in enumerate(self._fds):
                head_sizes.append(len(dependency.head))
                if not dependency.head:
                    empty_headed.append(position)
                for column in dependency.head:
                    by_column.setdefault(column, []).append(position)
            index = (by_column, head_sizes, empty_headed)
            self._index = index
        return index

    def closure(
        self,
        columns: Iterable[ColumnRef],
        equivalences: Optional[object] = None,
    ) -> "_Closure":
        """The attribute closure of ``columns`` under this FD set.

        Returns a :class:`_Closure`, which answers membership queries,
        knows whether a ``K -> *`` fired (in which case it contains every
        column), and can be grown incrementally with
        :meth:`_Closure.extend`.

        ``equivalences`` (an
        :class:`~repro.core.equivalence.EquivalenceClasses`) is consulted
        directly when given: any column entering the closure drags its
        whole equivalence class in, which is exactly what materializing
        the pairwise ``{x} -> {y}``/``{y} -> {x}`` FDs used to achieve
        at O(k^2) space.
        """
        closure = _Closure(self, equivalences)
        for column in columns:
            closure.extend(column)
        return closure

    def determines(
        self, columns: Iterable[ColumnRef], target: ColumnRef
    ) -> bool:
        """Whether ``columns -> {target}`` follows from this FD set."""
        return target in self.closure(columns)

    def implies(self, dependency: FunctionalDependency) -> bool:
        """Whether ``dependency`` follows from this FD set (Armstrong)."""
        closure = self.closure(dependency.head)
        if dependency.determines_all():
            return closure.determines_everything
        return all(column in closure for column in dependency.tail)

    def __iter__(self) -> Iterator[FunctionalDependency]:
        return iter(self._fds)

    def __len__(self) -> int:
        return len(self._fds)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = "; ".join(str(dependency) for dependency in self._fds)
        return f"FDSet[{inner}]"


class _Closure:
    """An attribute closure, growable one column at a time.

    ``extend(column)`` adds ``column`` to the underlying set and
    propagates through exactly the dependencies whose heads ``column``
    (or anything it drags in) completes — per-dependency missing-head
    counters make each dependency fire at most once over the closure's
    whole lifetime, so a sequence of extends costs one fixpoint total.
    """

    __slots__ = ("_known", "_missing", "_fds", "_by_column", "_equivalences",
                 "determines_everything")

    def __init__(self, fdset: FDSet, equivalences: Optional[object] = None):
        by_column, head_sizes, empty_headed = fdset._head_index()
        self._fds = fdset._fds
        self._by_column = by_column
        self._equivalences = equivalences
        self._known: Set[ColumnRef] = set()
        # Copy of the per-dependency missing-head counts; decremented as
        # head columns arrive, firing the dependency at zero.
        self._missing: List[int] = list(head_sizes)
        self.determines_everything = False
        count("closure.builds")
        for position in empty_headed:
            dependency = self._fds[position]
            if dependency.tail is ALL_COLUMNS:
                self.determines_everything = True
                return
            for column in dependency.tail:
                self.extend(column)

    @property
    def columns(self) -> ColumnSet:
        """Everything known to be in the closure so far.

        When :attr:`determines_everything` is set the closure logically
        contains every column; this reports the explicitly derived ones,
        matching the point at which derivation stopped.
        """
        return frozenset(self._known)

    def extend(self, column: ColumnRef) -> None:
        """Add ``column`` to the closed set and propagate to fixpoint."""
        known = self._known
        if self.determines_everything or column in known:
            return
        by_column = self._by_column
        missing = self._missing
        fds = self._fds
        equivalences = self._equivalences
        iterations = 0
        queue = [column]
        while queue:
            current = queue.pop()
            if current in known:
                continue
            known.add(current)
            iterations += 1
            if equivalences is not None:
                group = equivalences.group(current)
                if group is not None:
                    for member in group:
                        if member not in known:
                            queue.append(member)
            positions = by_column.get(current)
            if positions is None:
                continue
            for position in positions:
                missing[position] -= 1
                if missing[position] == 0:
                    dependency = fds[position]
                    if dependency.tail is ALL_COLUMNS:
                        self.determines_everything = True
                        count("closure.iterations", iterations)
                        return
                    for target in dependency.tail:
                        if target not in known:
                            queue.append(target)
        count("closure.iterations", iterations)

    def __contains__(self, column: ColumnRef) -> bool:
        return self.determines_everything or column in self._known

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.determines_everything:
            return "<closure: everything>"
        inner = ", ".join(sorted(str(column) for column in self._known))
        return f"<closure: {inner}>"


EMPTY_FDS = FDSet()
