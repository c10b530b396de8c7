"""A naive reference evaluator used as the differential-testing oracle.

Evaluates a :class:`~repro.qgm.block.QueryBlock` by brute force: the
FROM tables joined in FROM order with each WHERE conjunct applied once
its tables are joined (the filtered Cartesian product, never built
whole), hash grouping, then sorting — no optimizer, no indexes, no
cleverness. Slow but obviously correct.

NULL-ordering convention
------------------------
Every comparison of row values in this module — sorting, grouping,
DISTINCT, UNION dedup — goes through
:func:`repro.sqltypes.values.sort_key`, the single documented total
order: NULLs sort *after* all non-NULL values ascending and therefore
*first* descending (DB2 sorts NULLs high). The executor's sort operators
use the same function, so the reference and the engine cannot drift;
``tests/verify/test_reference_nulls.py`` pins the placement on both
sides. Never compare or hash raw row values here — always ``sort_key``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.executor.aggregate import _Accumulator, _COUNT_STAR
from repro.expr.analysis import columns_of, conjuncts_of, is_column_equality
from repro.expr.evaluate import evaluate, evaluate_predicate
from repro.expr.nodes import ColumnRef
from repro.expr.schema import RowSchema
from repro.core.ordering import SortDirection
from repro.qgm.block import QueryBlock
from repro.sqltypes import sort_key
from repro.sqltypes.values import is_null
from repro.storage import Database


def evaluate_block(database: Database, block: QueryBlock) -> List[tuple]:
    """Evaluate ``block`` naively and return its rows (sorted per the
    block's ORDER BY; unordered otherwise)."""
    schema, rows = join_box_rows(database, block)
    if block.has_group_by():
        schema, rows = _group(schema, rows, block)
    if block.having is not None:
        rows = [
            row
            for row in rows
            if evaluate_predicate(block.having, schema, row)
        ]
    items = _unique_items(block)
    visible = len(items)
    # ORDER BY may reference columns outside the select list; carry them
    # as hidden trailing columns and strip after sorting.
    present = {item.output for item in items}
    hidden = [
        key.column
        for key in block.order_by
        if key.column not in present
    ]
    out_schema = RowSchema([item.output for item in items] + hidden)
    projected = [
        tuple(evaluate(item.expression, schema, row) for item in items)
        + tuple(evaluate(column, schema, row) for column in hidden)
        for row in rows
    ]
    if block.distinct:
        seen = set()
        deduped = []
        for row in projected:
            marker = tuple(sort_key(value) for value in row)
            if marker in seen:
                continue
            seen.add(marker)
            deduped.append(row)
        projected = deduped
    if not block.order_by.is_empty():
        plan = []
        for key in block.order_by:
            position = out_schema.position(key.column)
            plan.append((position, key.direction is SortDirection.DESC))
        projected.sort(
            key=lambda row: tuple(
                sort_key(row[position], descending)
                for position, descending in plan
            )
        )
    if block.fetch_first is not None:
        projected = projected[: block.fetch_first]
    if hidden:
        projected = [row[:visible] for row in projected]
    return projected


def _unique_items(block: QueryBlock):
    seen = set()
    unique = []
    for item in block.select_items:
        if item.output in seen:
            continue
        seen.add(item.output)
        unique.append(item)
    return unique


def join_box_rows(
    database: Database, block: QueryBlock
) -> Tuple[RowSchema, List[tuple]]:
    """The rows of ``block``'s FROM + WHERE: its join box with every
    predicate applied, before grouping and projection."""
    return _cartesian(database, block, conjuncts_of(block.predicate))


def _cartesian(
    database: Database, block: QueryBlock, conjuncts: Sequence = ()
) -> Tuple[RowSchema, List[tuple]]:
    """FROM-clause evaluation: Cartesian for comma joins, sequential
    LEFT OUTER JOIN with padding for outer-joined entries.

    ``conjuncts`` (WHERE conjuncts) are applied as soon as every table
    they name is joined, and a comma-joined table equated to a joined
    column is matched through a hash on that column. Each step extends
    every row on its own, so the rows are those of the full product
    filtered afterwards, without the product ever being built.
    """
    pending = [
        (conjunct, {column.qualifier for column in columns_of(conjunct)})
        for conjunct in conjuncts
    ]
    joined = set()
    schema_columns: List[ColumnRef] = []
    rows: List[tuple] = [()]
    for alias, table_name in block.tables.items():
        if block.is_derived(alias):
            table_columns, table_rows = _derived_rows(
                database, alias, block.derived[alias]
            )
        else:
            table = database.catalog.table(table_name)
            table_columns = [
                ColumnRef(alias, column.name) for column in table.columns
            ]
            table_rows = [
                row for _rid, row in database.store(table_name).heap.scan()
            ]
        on_predicate = block.outer_joins.get(alias)
        if on_predicate is None:
            match = _hash_match(pending, schema_columns, table_columns)
            if match is None:
                rows = [
                    existing + candidate
                    for existing in rows
                    for candidate in table_rows
                ]
            else:
                bound, probed = match
                buckets: Dict[object, List[tuple]] = {}
                for candidate in table_rows:
                    if not is_null(candidate[probed]):
                        buckets.setdefault(
                            sort_key(candidate[probed]), []
                        ).append(candidate)
                rows = [
                    existing + candidate
                    for existing in rows
                    if not is_null(existing[bound])
                    for candidate in buckets.get(sort_key(existing[bound]), ())
                ]
        else:
            joined_schema = RowSchema(schema_columns + table_columns)
            padding = (None,) * len(table_columns)
            joined_rows: List[tuple] = []
            for existing in rows:
                matched = False
                for candidate in table_rows:
                    combined = existing + candidate
                    if evaluate_predicate(
                        on_predicate, joined_schema, combined
                    ):
                        matched = True
                        joined_rows.append(combined)
                if not matched:
                    joined_rows.append(existing + padding)
            rows = joined_rows
        schema_columns.extend(table_columns)
        joined.add(alias)
        ready = [conjunct for conjunct, names in pending if names <= joined]
        if ready:
            pending = [entry for entry in pending if not entry[1] <= joined]
            rows = _filtered(rows, RowSchema(schema_columns), ready)
    schema = RowSchema(schema_columns)
    if pending:  # a conjunct naming no table of the block
        rows = _filtered(rows, schema, [entry[0] for entry in pending])
    return schema, rows


def _filtered(rows, schema, conjuncts):
    return [
        row
        for row in rows
        if all(evaluate_predicate(c, schema, row) for c in conjuncts)
    ]


def _hash_match(pending, bound_columns, table_columns):
    """``(bound position, table position)`` of a pending ``col = col``
    conjunct between a joined column and one of the next table's, or
    None. NULL never equals, and ``sort_key`` classes are SQL equality
    (a float meets the equal Decimal), so the hash loses no match."""
    bound = {column: position for position, column in enumerate(bound_columns)}
    probed = {column: position for position, column in enumerate(table_columns)}
    for conjunct, _names in pending:
        pair = is_column_equality(conjunct)
        if pair is None:
            continue
        left, right = pair
        if left in bound and right in probed:
            return bound[left], probed[right]
        if right in bound and left in probed:
            return bound[right], probed[left]
    return None


def _derived_rows(database: Database, alias: str, box):
    """Evaluate a derived table and expose its columns as alias.name."""
    from repro.qgm import normalize as qgm_normalize
    from repro.qgm.boxes import UnionBox

    if isinstance(box, UnionBox):
        rows = _evaluate_union(database, box)
        names = [item.name for item in box.output_items()]
    else:
        inner_block = qgm_normalize(box)
        rows = evaluate_block(database, inner_block)
        seen = set()
        names = []
        for item in inner_block.select_items:
            if item.output in seen:
                continue
            seen.add(item.output)
            names.append(item.name)
    columns = [ColumnRef(alias, name) for name in names]
    return columns, rows


def _group(
    schema: RowSchema, rows: Sequence[tuple], block: QueryBlock
) -> Tuple[RowSchema, List[tuple]]:
    out_columns = list(block.group_columns) + [
        ColumnRef("", name) for name, _agg in block.aggregates
    ]
    out_schema = RowSchema(out_columns)
    positions = [schema.position(column) for column in block.group_columns]
    groups: Dict[tuple, Tuple[tuple, list]] = {}
    for row in rows:
        raw = tuple(row[position] for position in positions)
        marker = tuple(sort_key(value) for value in raw)
        entry = groups.get(marker)
        if entry is None:
            accumulators = [
                _Accumulator(aggregate.kind, aggregate.distinct)
                for _name, aggregate in block.aggregates
            ]
            entry = (raw, accumulators)
            groups[marker] = entry
        for accumulator, (_name, aggregate) in zip(
            entry[1], block.aggregates
        ):
            if aggregate.argument is None:
                accumulator.add(_COUNT_STAR)
            else:
                accumulator.add(evaluate(aggregate.argument, schema, row))
    if not groups and not block.group_columns:
        accumulators = [
            _Accumulator(aggregate.kind, aggregate.distinct)
            for _name, aggregate in block.aggregates
        ]
        return out_schema, [tuple(acc.result() for acc in accumulators)]
    out_rows = [
        raw + tuple(accumulator.result() for accumulator in accumulators)
        for raw, accumulators in groups.values()
    ]
    return out_schema, out_rows


def reference_query(database: Database, sql: str) -> List[tuple]:
    """Parse + rewrite + naively evaluate ``sql`` (UNIONs included)."""
    from repro.parser import parse_query
    from repro.qgm import normalize, rewrite
    from repro.qgm.boxes import UnionBox

    box = rewrite(parse_query(sql, database.catalog))
    if isinstance(box, UnionBox):
        return _evaluate_union(database, box)
    return evaluate_block(database, normalize(box))


def _evaluate_union(database: Database, union) -> List[tuple]:
    from repro.qgm import normalize

    rows: List[tuple] = []
    for branch in union.branches:
        rows.extend(evaluate_block(database, normalize(branch)))
    if not union.all_rows:
        seen = set()
        deduped = []
        for row in rows:
            key = tuple(sort_key(value) for value in row)
            if key in seen:
                continue
            seen.add(key)
            deduped.append(row)
        rows = deduped
    if not union.output_order.is_empty():
        outputs = [item.output for item in union.output_items()]
        positions = {column: index for index, column in enumerate(outputs)}
        plan = [
            (positions[key.column], key.direction is SortDirection.DESC)
            for key in union.output_order
        ]
        rows.sort(
            key=lambda row: tuple(
                sort_key(row[position], descending)
                for position, descending in plan
            )
        )
    if union.fetch_first is not None:
        rows = rows[: union.fetch_first]
    return rows
