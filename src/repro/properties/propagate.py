"""Property propagation through plan operators (Section 5.2.1).

Each function maps input :class:`StreamProperties` to output properties
for one operator kind. Cardinality numbers are supplied by the caller
(the cost model owns selectivity estimation); everything else is derived
here.
"""

from __future__ import annotations

from dataclasses import replace
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set

from repro.catalog import TableSchema
from repro.core.equivalence import EquivalenceClasses
from repro.core.fd import FDSet, fd
from repro.core.instrument import count
from repro.core.ordering import OrderKey, OrderSpec
from repro.expr.analysis import analyze_predicates, columns_of
from repro.expr.nodes import ColumnRef, Expression
from repro.expr.schema import RowSchema
from repro.properties.stream import KeyProperty, StreamProperties


def base_table_properties(
    alias: str, table: TableSchema, cardinality: Optional[float] = None
) -> StreamProperties:
    """Properties of a raw (unordered) scan of ``table`` as ``alias``."""
    schema = RowSchema(
        ColumnRef(alias, column.name) for column in table.columns
    )
    keys = [
        [ColumnRef(alias, name) for name in key] for key in table.keys()
    ]
    return StreamProperties(
        schema=schema,
        key_property=KeyProperty(keys),
        cardinality=(
            float(table.stats.row_count) if cardinality is None else cardinality
        ),
    )


def propagate_filter(
    properties: StreamProperties,
    predicate: Expression,
    cardinality: float,
) -> StreamProperties:
    """Apply a predicate: harvest constants/equivalences/FDs, keep order."""
    facts = analyze_predicates([predicate])
    equivalences = properties.equivalences.copy()
    for left, right in facts.equalities:
        equivalences.add_equality(left, right)
    constants = frozenset(properties.constants | set(facts.constant_bindings))
    updated = replace(
        properties,
        equivalences=equivalences,
        constants=constants,
        predicates=properties.predicates | frozenset(facts.conjuncts),
        cardinality=max(0.0, cardinality),
    )
    key_property = updated.key_property.simplified(updated.context())
    return replace(updated, key_property=key_property)


def propagate_sort(
    properties: StreamProperties, order: OrderSpec
) -> StreamProperties:
    """A sort replaces the order property and passes everything else on."""
    return properties.with_order(order)


def propagate_project(
    properties: StreamProperties, columns: Sequence[ColumnRef]
) -> StreamProperties:
    """Restrict the stream to ``columns``.

    The order property survives up to the first projected-away column;
    keys lose any member column; FDs are restricted to surviving columns.
    """
    column_set = set(columns)
    surviving_keys: List[OrderKey] = []
    for key in properties.order:
        if key.column not in column_set:
            break
        surviving_keys.append(key)
    restricted_fds = FDSet()
    for dependency in properties.fds:
        if dependency.determines_all():
            # Key FDs never live in the explicit set; defensive skip.
            continue
        if not dependency.head <= column_set:
            continue
        tail = frozenset(dependency.tail) & column_set
        if tail:
            restricted_fds = restricted_fds.add(fd(dependency.head, tail))
    equivalences = _restrict_equivalences(properties.equivalences, column_set)
    return replace(
        properties,
        schema=properties.schema.project(columns),
        order=OrderSpec(surviving_keys),
        key_property=properties.key_property.projected(column_set),
        fds=restricted_fds,
        equivalences=equivalences,
        constants=frozenset(properties.constants & column_set),
        predicates=frozenset(
            predicate
            for predicate in properties.predicates
            if columns_of(predicate) <= column_set
        ),
        ods=properties.ods.restrict(column_set),
    )


def _restrict_equivalences(
    equivalences: EquivalenceClasses, columns: Set[ColumnRef]
) -> EquivalenceClasses:
    restricted = EquivalenceClasses()
    for group in equivalences.classes():
        members = sorted(
            (column for column in group if column in columns),
            key=lambda column: (column.qualifier, column.name),
        )
        for column in members[1:]:
            restricted.add_equality(members[0], column)
    return restricted


def _key_bound_by_join(
    key: FrozenSet[ColumnRef],
    other_side_columns: Set[ColumnRef],
    equivalences: EquivalenceClasses,
    constants: Set[ColumnRef],
) -> bool:
    """Whether every column of ``key`` is equated to the other side or a
    constant — the paper's "fully qualified" test for n:1 joins."""
    for column in key:
        if column in constants:
            continue
        members = equivalences.members(column)
        if members & other_side_columns:
            continue
        return False
    return True


# propagate_join memo: (outer content, inner content, conjunct set,
# cardinality, order flag) -> output properties. Propagation is a pure
# function of stream *content* and StreamProperties is frozen, so the
# cached output is safe to share between plans. Join enumeration calls
# propagate_join once per (plan pair x join method); the pairs repeat
# constantly — plans over a subset differ mostly in cost, not content.
_JOIN_MEMO: dict = {}
_JOIN_MEMO_CAP = 8192


def clear_propagation_memo() -> None:
    """Drop the join-propagation memo (test/bench hygiene, like
    ``repro.core.memo.clear_memos``)."""
    _JOIN_MEMO.clear()


def propagate_join(
    outer: StreamProperties,
    inner: StreamProperties,
    join_predicates: Iterable[Expression],
    cardinality: float,
    preserves_outer_order: bool,
) -> StreamProperties:
    """Properties of a join output.

    ``preserves_outer_order`` is True for nested-loop-style joins and
    merge joins (both emit outer records in order); hash joins that
    build on the inner also preserve probe order, so most methods pass
    True — the join operator itself decides.
    """
    join_predicates = list(join_predicates)
    count("propagate.join_calls")
    memo_key = (
        outer.content_key(),
        inner.content_key(),
        frozenset(join_predicates),
        cardinality,
        preserves_outer_order,
    )
    cached = _JOIN_MEMO.get(memo_key)
    if cached is not None:
        count("propagate.join_memo_hits")
        return cached
    result = _propagate_join_impl(
        outer, inner, join_predicates, cardinality, preserves_outer_order
    )
    if len(_JOIN_MEMO) >= _JOIN_MEMO_CAP:
        _JOIN_MEMO.clear()
    _JOIN_MEMO[memo_key] = result
    return result


def _propagate_join_impl(
    outer: StreamProperties,
    inner: StreamProperties,
    join_predicates: List[Expression],
    cardinality: float,
    preserves_outer_order: bool,
) -> StreamProperties:
    facts = analyze_predicates(join_predicates)
    equivalences = outer.equivalences.merged_with(inner.equivalences)
    for left, right in facts.equalities:
        equivalences.add_equality(left, right)
    constants = set(outer.constants) | set(inner.constants) | set(
        facts.constant_bindings
    )
    outer_columns = set(outer.schema.columns)
    inner_columns = set(inner.schema.columns)

    inner_at_most_one = inner.key_property.one_record or any(
        _key_bound_by_join(key, outer_columns, equivalences, constants)
        for key in inner.key_property.keys
    )
    outer_at_most_one = outer.key_property.one_record or any(
        _key_bound_by_join(key, inner_columns, equivalences, constants)
        for key in outer.key_property.keys
    )

    fds = outer.fds.union(inner.fds)
    if inner_at_most_one and outer_at_most_one:
        key_property = outer.key_property.union(inner.key_property)
    elif inner_at_most_one:
        # n:1 — outer keys stay keys; inner keys become plain FDs over
        # the inner side's columns.
        key_property = outer.key_property
        fds = _demote_keys(fds, inner)
    elif outer_at_most_one:
        key_property = inner.key_property
        fds = _demote_keys(fds, outer)
    else:
        key_property = outer.key_property.concatenated_with(
            inner.key_property
        )
        fds = _demote_keys(fds, outer)
        fds = _demote_keys(fds, inner)

    order = outer.order if preserves_outer_order else OrderSpec()
    joined = StreamProperties(
        schema=outer.schema.concat(inner.schema),
        order=order,
        key_property=key_property,
        fds=fds,
        equivalences=equivalences,
        constants=frozenset(constants),
        predicates=(
            outer.predicates | inner.predicates | frozenset(facts.conjuncts)
        ),
        cardinality=max(0.0, cardinality),
        ods=outer.ods.union(inner.ods),
    )
    return replace(
        joined, key_property=joined.key_property.simplified(joined.context())
    )


def rename_properties(
    properties: StreamProperties, mapping: Dict[ColumnRef, ColumnRef]
) -> StreamProperties:
    """Re-express a stream's properties under new column names.

    Used when a derived table's plan is exposed to the outer block: its
    output columns become ``alias.name`` references. Facts that cannot
    be fully translated (an FD mentioning a projected-away column, the
    order suffix past an unmapped column) are dropped, never guessed.
    """
    new_schema = RowSchema([mapping[c] for c in properties.schema.columns])
    order_keys: List[OrderKey] = []
    for key in properties.order:
        target = mapping.get(key.column)
        if target is None:
            break
        order_keys.append(key.with_column(target))
    keys = []
    for key in properties.key_property.keys:
        if all(column in mapping for column in key):
            keys.append(frozenset(mapping[column] for column in key))
    fds = FDSet()
    for dependency in properties.fds:
        if dependency.determines_all():
            continue
        if not all(c in mapping for c in dependency.head):
            continue
        tail = frozenset(
            mapping[c] for c in dependency.tail if c in mapping
        )
        if tail:
            fds = fds.add(
                fd((mapping[c] for c in dependency.head), tail)
            )
    equivalences = EquivalenceClasses()
    for group in properties.equivalences.classes():
        mapped = sorted(
            (mapping[c] for c in group if c in mapping),
            key=lambda c: (c.qualifier, c.name),
        )
        for column in mapped[1:]:
            equivalences.add_equality(mapped[0], column)
    return StreamProperties(
        schema=new_schema,
        order=OrderSpec(order_keys),
        key_property=KeyProperty(
            keys, one_record=properties.key_property.one_record
        ),
        fds=fds,
        equivalences=equivalences,
        constants=frozenset(
            mapping[c] for c in properties.constants if c in mapping
        ),
        predicates=frozenset(),
        cardinality=properties.cardinality,
        ods=properties.ods.translate(mapping),
    )


def propagate_left_outer_join(
    preserved: StreamProperties,
    null_supplying: StreamProperties,
    on_predicates: Iterable[Expression],
    cardinality: float,
) -> StreamProperties:
    """Properties of ``preserved LEFT OUTER JOIN null_supplying ON ...``.

    Padded rows break most facts about the null-supplying side, so this
    is deliberately conservative:

    * ON equalities do NOT merge equivalence classes (x = y fails on
      padded rows) — but per §4.1, ``x = y`` with x from the preserved
      side yields a one-directional FD into y. Its head is every
      preserved-side column the ON clause reads (x among them): rows
      agreeing on those either all matched (y = x) or all padded (y
      NULL), while rows agreeing on x alone may differ in another ON
      conjunct over the preserved side;
    * constants and equivalences of the null side are dropped;
    * the null side's explicit FDs and keys are dropped (NULL padding
      can alias head values);
    * the preserved side's order, keys (when the join is n:1),
      equivalences, constants, and predicates all survive.
    """
    on_predicates = list(on_predicates)
    facts = analyze_predicates(on_predicates)
    preserved_columns = set(preserved.schema.columns)
    null_columns = set(null_supplying.schema.columns)

    head = [
        column
        for predicate in on_predicates
        for column in columns_of(predicate)
        if column in preserved_columns
    ]
    fds = preserved.fds
    for left, right in facts.equalities:
        if left in preserved_columns and right in null_columns:
            fds = fds.add(fd(head, [right]))
        elif right in preserved_columns and left in null_columns:
            fds = fds.add(fd(head, [left]))

    # n:1 test against the ON equalities (padding keeps it at-most-one).
    equivalence_probe = EquivalenceClasses(facts.equalities)
    inner_at_most_one = null_supplying.key_property.one_record or any(
        _key_bound_by_join(
            key,
            preserved_columns,
            equivalence_probe,
            set(facts.constant_bindings),
        )
        for key in null_supplying.key_property.keys
    )
    if inner_at_most_one:
        key_property = preserved.key_property
    else:
        key_property = preserved.key_property.concatenated_with(
            null_supplying.key_property
        )

    joined = StreamProperties(
        schema=preserved.schema.concat(null_supplying.schema),
        order=preserved.order,
        key_property=key_property,
        fds=fds,
        equivalences=preserved.equivalences.copy(),
        constants=frozenset(preserved.constants),
        predicates=preserved.predicates,
        cardinality=max(preserved.cardinality, cardinality),
        # NULL padding breaks null-side order facts; only the preserved
        # side's ODs survive.
        ods=preserved.ods,
    )
    return replace(
        joined, key_property=joined.key_property.simplified(joined.context())
    )


def _demote_keys(fds: FDSet, side: StreamProperties) -> FDSet:
    """Turn a side's keys into explicit FDs over that side's columns.

    Used when a key stops being a key of the join output but still
    determines its own side's columns.
    """
    side_columns = frozenset(side.schema.columns)
    for key in side.key_property.keys:
        tail = side_columns - key
        if tail:
            fds = fds.add(fd(key, tail))
    if side.key_property.one_record and side_columns:
        fds = fds.add(fd((), side_columns))
    return fds


def propagate_group_by(
    properties: StreamProperties,
    group_columns: Sequence[ColumnRef],
    output_schema: RowSchema,
    aggregate_columns: Sequence[ColumnRef],
    cardinality: float,
) -> StreamProperties:
    """Properties of a GROUP BY output.

    The grouping columns key the output and functionally determine the
    aggregate columns. A sort-based group-by's output keeps the input
    order truncated to output columns; hash-based callers should clear
    the order afterwards.
    """
    output_columns = set(output_schema.columns)
    surviving_keys: List[OrderKey] = []
    for key in properties.order:
        if key.column not in output_columns:
            break
        surviving_keys.append(key)
    fds = FDSet()
    for dependency in properties.fds:
        if not dependency.head <= output_columns:
            continue
        tail = frozenset(dependency.tail) & output_columns
        if tail:
            fds = fds.add(fd(dependency.head, tail))
    group_set = frozenset(group_columns)
    if group_set and aggregate_columns:
        fds = fds.add(fd(group_set, aggregate_columns))
    key_property = (
        KeyProperty([group_set])
        if group_set
        else KeyProperty.one_record_condition()
    )
    grouped = StreamProperties(
        schema=output_schema,
        order=OrderSpec(surviving_keys),
        key_property=key_property,
        fds=fds,
        equivalences=_restrict_equivalences(
            properties.equivalences, output_columns
        ),
        constants=frozenset(properties.constants & output_columns),
        predicates=frozenset(
            predicate
            for predicate in properties.predicates
            if columns_of(predicate) <= output_columns
        ),
        cardinality=max(0.0, cardinality),
        ods=properties.ods.restrict(output_columns),
    )
    return replace(
        grouped, key_property=grouped.key_property.simplified(grouped.context())
    )


def propagate_distinct(
    properties: StreamProperties, cardinality: float
) -> StreamProperties:
    """After DISTINCT the full column list is a key."""
    key_property = properties.key_property.union(
        KeyProperty([frozenset(properties.schema.columns)])
    )
    updated = replace(
        properties,
        key_property=key_property,
        cardinality=max(0.0, cardinality),
    )
    return replace(
        updated, key_property=updated.key_property.simplified(updated.context())
    )
