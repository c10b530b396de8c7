"""Recursive-descent SQL parser producing QGM box trees."""

from __future__ import annotations

import datetime
import decimal
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.catalog import Catalog
from repro.core.ordering import OrderKey, OrderSpec, SortDirection
from repro.errors import ParseError
from repro.expr.analysis import columns_of
from repro.expr.nodes import (
    Aggregate,
    AggregateKind,
    Arithmetic,
    ArithmeticOp,
    BooleanExpr,
    BooleanOp,
    CaseWhen,
    ColumnRef,
    Comparison,
    ComparisonOp,
    DatePart,
    Expression,
    InList,
    IsNull,
    Literal,
    Not,
)
from repro.expr.transform import transform
from repro.parser.lexer import Token, TokenKind, tokenize
from repro.qgm.boxes import (
    BaseTableQuantifier,
    Box,
    BoxQuantifier,
    GroupByBox,
    Quantifier,
    SelectBox,
    SelectItem,
)

# Placeholder qualifier for not-yet-resolved unqualified column names.
_UNRESOLVED = "\0unresolved"

_AGG_KINDS = {kind.value.lower(): kind for kind in AggregateKind}


def parse_query(
    sql_or_tokens: Union[str, List[Token]], catalog: Catalog
) -> Box:
    """Parse SQL text, or its token list (``tokenize``'s or
    ``parameterize``'s), against ``catalog``: the QGM root box."""
    if isinstance(sql_or_tokens, str):
        sql_or_tokens = tokenize(sql_or_tokens)
    parser = _Parser(sql_or_tokens, catalog)
    box = parser.parse_statement()
    parser.expect_eof()
    return box


class _FromEntry:
    """One FROM-clause entry prior to resolution.

    ``outer_join_on`` holds the raw (unresolved) ON predicate when this
    entry is LEFT OUTER JOINed to everything before it; ``None`` for
    comma/inner joins.
    """

    def __init__(
        self,
        alias: str,
        table_name: Optional[str] = None,
        subquery: Optional[Box] = None,
        outer_join_on: Optional[Expression] = None,
    ):
        self.alias = alias
        self.table_name = table_name
        self.subquery = subquery
        self.outer_join_on = outer_join_on


class _Parser:
    def __init__(self, tokens: List[Token], catalog: Catalog):
        self._tokens = tokens
        self._index = 0
        self._catalog = catalog

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[min(self._index + offset, len(self._tokens) - 1)]

    def _next(self) -> Token:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            self._index += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        if self._peek().is_keyword(word):
            self._next()
            return True
        return False

    def _expect_keyword(self, word: str) -> None:
        token = self._next()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected {word.upper()}, found {token.text!r}",
                token.line,
                token.column,
            )

    def _accept_punct(self, char: str) -> bool:
        token = self._peek()
        if token.kind is TokenKind.PUNCT and token.text == char:
            self._next()
            return True
        return False

    def _expect_punct(self, char: str) -> None:
        token = self._next()
        if token.kind is not TokenKind.PUNCT or token.text != char:
            raise ParseError(
                f"expected {char!r}, found {token.text!r}",
                token.line,
                token.column,
            )

    def expect_eof(self) -> None:
        token = self._peek()
        if token.kind is not TokenKind.EOF:
            raise ParseError(
                f"unexpected trailing input {token.text!r}",
                token.line,
                token.column,
            )

    def _error(self, message: str) -> ParseError:
        token = self._peek()
        return ParseError(message, token.line, token.column)

    # ------------------------------------------------------------------
    # Statement structure
    # ------------------------------------------------------------------

    def parse_statement(self) -> Box:
        """A SELECT, possibly a UNION [ALL] chain with a trailing
        ORDER BY / FETCH FIRST applying to the whole union."""
        from repro.qgm.boxes import UnionBox

        first = self.parse_select()
        if not self._peek().is_keyword("union"):
            return first
        branches = [first]
        all_flags = []
        while self._accept_keyword("union"):
            all_flags.append(self._accept_keyword("all"))
            branches.append(self.parse_select())
        for branch in branches[:-1]:
            if not branch.output_order.is_empty() or branch.fetch_first:
                raise ParseError(
                    "ORDER BY / FETCH FIRST must follow the last UNION "
                    "branch, applying to the whole union"
                )
        if len(set(all_flags)) > 1:
            raise ParseError("mixing UNION and UNION ALL is not supported")
        union = UnionBox(branches, all_rows=all_flags[0])
        # A trailing ORDER BY / FETCH FIRST was syntactically absorbed by
        # the last branch; per SQL it governs the whole union — hoist it.
        last = branches[-1]
        if not last.output_order.is_empty():
            union.output_order = self._hoist_union_order(union, last)
            last.output_order = OrderSpec(())
        union.fetch_first = last.fetch_first
        last.fetch_first = None
        return union

    def _hoist_union_order(self, union, last) -> OrderSpec:
        """Re-express the last branch's ORDER BY on the union's outputs
        (positional mapping through the branch's select list)."""
        branch_items = list(last.output_items())
        union_items = list(union.output_items())
        keys: List[OrderKey] = []
        for key in last.output_order:
            position = next(
                (
                    index
                    for index, item in enumerate(branch_items)
                    if item.output == key.column
                ),
                None,
            )
            if position is None:
                raise ParseError(
                    "UNION ORDER BY must reference output columns"
                )
            keys.append(
                OrderKey(union_items[position].output, key.direction)
            )
        return OrderSpec(keys)

    def parse_select(self) -> Box:
        self._expect_keyword("select")
        distinct = self._accept_keyword("distinct")
        raw_items = self._parse_select_list()
        self._expect_keyword("from")
        from_entries, inner_on = self._parse_from_list()
        predicate = None
        if self._accept_keyword("where"):
            predicate = self._parse_expression()
        # INNER JOIN ... ON predicates are plain conjuncts of the WHERE.
        for on_predicate in inner_on:
            if predicate is None:
                predicate = on_predicate
            else:
                predicate = BooleanExpr(
                    BooleanOp.AND, (predicate, on_predicate)
                )
        group_columns: List[Expression] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_columns.append(self._parse_expression())
            while self._accept_punct(","):
                group_columns.append(self._parse_expression())
        having = None
        if self._accept_keyword("having"):
            having = self._parse_expression()
        order_items: List[Tuple[Expression, SortDirection]] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_items.append(self._parse_order_item())
            while self._accept_punct(","):
                order_items.append(self._parse_order_item())
        fetch_first = self._parse_fetch_first()
        return _Builder(
            catalog=self._catalog,
            from_entries=from_entries,
            raw_items=raw_items,
            predicate=predicate,
            group_columns=group_columns,
            having=having,
            order_items=order_items,
            distinct=distinct,
            fetch_first=fetch_first,
        ).build()

    def _parse_fetch_first(self) -> Optional[int]:
        """``FETCH FIRST n ROWS ONLY`` (DB2's Top-N clause)."""
        if not self._accept_keyword("fetch"):
            return None
        self._expect_keyword("first")
        token = self._next()
        if token.kind is not TokenKind.NUMBER or "." in token.text:
            raise ParseError(
                "FETCH FIRST expects an integer row count",
                token.line,
                token.column,
            )
        count = int(token.text)
        if count < 1:
            raise ParseError(
                "FETCH FIRST requires a positive count",
                token.line,
                token.column,
            )
        if not (self._accept_keyword("rows") or self._accept_keyword("row")):
            raise ParseError(
                "expected ROWS after FETCH FIRST n",
                self._peek().line,
                self._peek().column,
            )
        self._expect_keyword("only")
        return count

    def _parse_select_list(self) -> List[Tuple[Optional[Expression], Optional[str]]]:
        """Items as (expression, alias); (None, None) encodes ``*``."""
        items: List[Tuple[Optional[Expression], Optional[str]]] = []
        if self._peek().kind is TokenKind.OPERATOR and self._peek().text == "*":
            self._next()
            items.append((None, None))
        else:
            items.append(self._parse_select_item())
        while self._accept_punct(","):
            if (
                self._peek().kind is TokenKind.OPERATOR
                and self._peek().text == "*"
            ):
                self._next()
                items.append((None, None))
            else:
                items.append(self._parse_select_item())
        return items

    def _parse_select_item(self) -> Tuple[Expression, Optional[str]]:
        expression = self._parse_expression()
        alias = None
        if self._accept_keyword("as"):
            token = self._next()
            if token.kind is not TokenKind.IDENT:
                raise ParseError(
                    f"expected alias, found {token.text!r}",
                    token.line,
                    token.column,
                )
            alias = token.text
        elif self._peek().kind is TokenKind.IDENT:
            alias = self._next().text
        return expression, alias

    def _parse_from_list(
        self,
    ) -> Tuple[List[_FromEntry], List[Expression]]:
        """FROM entries plus INNER-JOIN ON predicates (folded into WHERE)."""
        entries = [self._parse_from_entry()]
        inner_on: List[Expression] = []
        while True:
            if self._accept_punct(","):
                entries.append(self._parse_from_entry())
                continue
            if self._peek().is_keyword("left"):
                self._next()
                self._accept_keyword("outer")
                self._expect_keyword("join")
                entry = self._parse_from_entry()
                self._expect_keyword("on")
                entry.outer_join_on = self._parse_expression()
                entries.append(entry)
                continue
            if self._peek().is_keyword("inner") or self._peek().is_keyword("join"):
                self._accept_keyword("inner")
                self._expect_keyword("join")
                entries.append(self._parse_from_entry())
                self._expect_keyword("on")
                inner_on.append(self._parse_expression())
                continue
            break
        return entries, inner_on

    def _parse_from_entry(self) -> _FromEntry:
        if self._accept_punct("("):
            subquery = self.parse_statement()  # SELECT or UNION chain
            self._expect_punct(")")
            self._accept_keyword("as")
            token = self._next()
            if token.kind is not TokenKind.IDENT:
                raise ParseError(
                    "subquery in FROM requires an alias",
                    token.line,
                    token.column,
                )
            return _FromEntry(token.text, subquery=subquery)
        token = self._next()
        if token.kind is not TokenKind.IDENT:
            raise ParseError(
                f"expected table name, found {token.text!r}",
                token.line,
                token.column,
            )
        table_name = token.text
        alias = table_name
        if self._accept_keyword("as"):
            alias_token = self._next()
            if alias_token.kind is not TokenKind.IDENT:
                raise ParseError(
                    f"expected alias, found {alias_token.text!r}",
                    alias_token.line,
                    alias_token.column,
                )
            alias = alias_token.text
        elif self._peek().kind is TokenKind.IDENT:
            alias = self._next().text
        return _FromEntry(alias, table_name=table_name)

    def _parse_order_item(self) -> Tuple[Expression, SortDirection]:
        expression = self._parse_expression()
        direction = SortDirection.ASC
        if self._accept_keyword("desc"):
            direction = SortDirection.DESC
        else:
            self._accept_keyword("asc")
        return expression, direction

    # ------------------------------------------------------------------
    # Expressions (precedence climbing)
    # ------------------------------------------------------------------

    def _parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        operands = [self._parse_and()]
        while self._accept_keyword("or"):
            operands.append(self._parse_and())
        if len(operands) == 1:
            return operands[0]
        return BooleanExpr(BooleanOp.OR, tuple(operands))

    def _parse_and(self) -> Expression:
        operands = [self._parse_not()]
        while self._accept_keyword("and"):
            operands.append(self._parse_not())
        if len(operands) == 1:
            return operands[0]
        return BooleanExpr(BooleanOp.AND, tuple(operands))

    def _parse_not(self) -> Expression:
        if self._accept_keyword("not"):
            return Not(self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        token = self._peek()
        if token.kind is TokenKind.OPERATOR and token.text in (
            "=",
            "<>",
            "!=",
            "<",
            "<=",
            ">",
            ">=",
        ):
            self._next()
            text = "<>" if token.text == "!=" else token.text
            right = self._parse_additive()
            return Comparison(ComparisonOp(text), left, right)
        if token.is_keyword("between"):
            self._next()
            low = self._parse_additive()
            self._expect_keyword("and")
            high = self._parse_additive()
            return BooleanExpr(
                BooleanOp.AND,
                (
                    Comparison(ComparisonOp.GE, left, low),
                    Comparison(ComparisonOp.LE, left, high),
                ),
            )
        if token.is_keyword("in"):
            self._next()
            self._expect_punct("(")
            values = [self._parse_additive()]
            while self._accept_punct(","):
                values.append(self._parse_additive())
            self._expect_punct(")")
            return InList(left, tuple(values))
        if token.is_keyword("is"):
            self._next()
            negated = self._accept_keyword("not")
            self._expect_keyword("null")
            return IsNull(left, negated)
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            token = self._peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("+", "-"):
                self._next()
                right = self._parse_multiplicative()
                op = (
                    ArithmeticOp.ADD if token.text == "+" else ArithmeticOp.SUB
                )
                left = Arithmetic(op, left, right)
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            token = self._peek()
            if token.kind is TokenKind.OPERATOR and token.text in ("*", "/"):
                self._next()
                right = self._parse_unary()
                op = (
                    ArithmeticOp.MUL if token.text == "*" else ArithmeticOp.DIV
                )
                left = Arithmetic(op, left, right)
            else:
                return left

    def _parse_unary(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.OPERATOR and token.text == "-":
            self._next()
            operand = self._parse_unary()
            return Arithmetic(ArithmeticOp.SUB, Literal(0), operand)
        if token.kind is TokenKind.OPERATOR and token.text == "+":
            self._next()
            return self._parse_unary()
        return self._parse_primary()

    def _parse_primary(self) -> Expression:
        token = self._peek()
        if token.kind is TokenKind.PARAM:
            self._next()
            from repro.expr.nodes import Parameter

            return Parameter(token.text)
        if token.kind is TokenKind.NUMBER:
            self._next()
            if "." in token.text:
                return Literal(decimal.Decimal(token.text))
            return Literal(int(token.text))
        if token.kind is TokenKind.STRING:
            self._next()
            return Literal(token.text)
        if token.is_keyword("null"):
            self._next()
            return Literal(None)
        if token.is_keyword("case"):
            return self._parse_case()
        if self._accept_punct("("):
            inner = self._parse_expression()
            self._expect_punct(")")
            return inner
        if token.kind is TokenKind.IDENT:
            return self._parse_identifier_or_call()
        raise ParseError(
            f"unexpected token {token.text!r}", token.line, token.column
        )

    def _parse_case(self) -> Expression:
        self._expect_keyword("case")
        self._expect_keyword("when")
        condition = self._parse_expression()
        self._expect_keyword("then")
        then_value = self._parse_expression()
        self._expect_keyword("else")
        else_value = self._parse_expression()
        self._expect_keyword("end")
        return CaseWhen(condition, then_value, else_value)

    def _parse_identifier_or_call(self) -> Expression:
        token = self._next()
        name = token.text
        lowered = name.lower()
        if self._accept_punct("("):
            if lowered in _AGG_KINDS:
                return self._parse_aggregate(_AGG_KINDS[lowered])
            if lowered == "date":
                argument = self._next()
                if argument.kind is not TokenKind.STRING:
                    raise ParseError(
                        "date() expects a string literal",
                        argument.line,
                        argument.column,
                    )
                self._expect_punct(")")
                try:
                    return Literal(datetime.date.fromisoformat(argument.text))
                except ValueError:
                    raise ParseError(
                        f"bad date literal {argument.text!r}",
                        argument.line,
                        argument.column,
                    ) from None
            if lowered in ("year", "month", "day"):
                operand = self._parse_expression()
                self._expect_punct(")")
                return DatePart(lowered, operand)
            raise ParseError(
                f"unknown function {name!r}", token.line, token.column
            )
        if self._accept_punct("."):
            column_token = self._next()
            if column_token.kind is not TokenKind.IDENT:
                raise ParseError(
                    f"expected column after {name}.",
                    column_token.line,
                    column_token.column,
                )
            return ColumnRef(name, column_token.text)
        return ColumnRef(_UNRESOLVED, name)

    def _parse_aggregate(self, kind: AggregateKind) -> Expression:
        distinct = self._accept_keyword("distinct")
        token = self._peek()
        if (
            kind is AggregateKind.COUNT
            and token.kind is TokenKind.OPERATOR
            and token.text == "*"
        ):
            self._next()
            self._expect_punct(")")
            return Aggregate(kind, None, distinct)
        argument = self._parse_expression()
        self._expect_punct(")")
        return Aggregate(kind, argument, distinct)


class _Builder:
    """Resolves names and assembles the QGM box tree."""

    def __init__(
        self,
        catalog: Catalog,
        from_entries: List[_FromEntry],
        raw_items: List[Tuple[Optional[Expression], Optional[str]]],
        predicate: Optional[Expression],
        group_columns: List[Expression],
        having: Optional[Expression],
        order_items: List[Tuple[Expression, SortDirection]],
        distinct: bool,
        fetch_first: Optional[int] = None,
    ):
        self.catalog = catalog
        self.from_entries = from_entries
        self.raw_items = raw_items
        self.predicate = predicate
        self.group_columns = group_columns
        self.having = having
        self.order_items = order_items
        self.distinct = distinct
        self.fetch_first = fetch_first
        self._columns_by_alias: Dict[str, List[str]] = {}
        self._quantifiers: Dict[str, Quantifier] = {}

    # ------------------------------------------------------------------
    # Name resolution
    # ------------------------------------------------------------------

    def _register_sources(self) -> None:
        for entry in self.from_entries:
            if entry.alias in self._columns_by_alias:
                raise ParseError(f"duplicate alias {entry.alias!r}")
            if entry.table_name is not None:
                table = self.catalog.table(entry.table_name)
                self._columns_by_alias[entry.alias] = table.column_names
                self._quantifiers[entry.alias] = BaseTableQuantifier(
                    entry.alias, table.name
                )
            else:
                names = [item.name for item in entry.subquery.output_items()]
                self._columns_by_alias[entry.alias] = names
                self._quantifiers[entry.alias] = BoxQuantifier(
                    entry.alias, entry.subquery
                )

    def _resolve(self, expression: Expression) -> Expression:
        def visit(node: Expression) -> Optional[Expression]:
            if not isinstance(node, ColumnRef):
                return None
            if node.qualifier == _UNRESOLVED:
                matches = [
                    alias
                    for alias, names in self._columns_by_alias.items()
                    if node.name in names
                ]
                if len(matches) == 1:
                    return ColumnRef(matches[0], node.name)
                if not matches:
                    raise ParseError(f"unknown column {node.name!r}")
                raise ParseError(
                    f"ambiguous column {node.name!r} "
                    f"(matches {sorted(matches)})"
                )
            names = self._columns_by_alias.get(node.qualifier)
            if names is None:
                raise ParseError(f"unknown alias {node.qualifier!r}")
            if node.name not in names:
                raise ParseError(
                    f"no column {node.name!r} in {node.qualifier!r}"
                )
            return None

        return transform(expression, visit)

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def build(self) -> Box:
        self._register_sources()
        items = self._resolved_select_items()
        predicate = (
            self._resolve(self.predicate) if self.predicate is not None else None
        )
        outer_joins = {
            entry.alias: self._resolve(entry.outer_join_on)
            for entry in self.from_entries
            if entry.outer_join_on is not None
        }
        group_columns = [
            self._require_column(self._resolve(expression), "GROUP BY")
            for expression in self.group_columns
        ]
        having = (
            self._resolve(self.having) if self.having is not None else None
        )

        aggregates: List[Tuple[str, Aggregate]] = []
        final_items: List[SelectItem] = []
        for expression, name in items:
            preferred = name if isinstance(expression, Aggregate) else None
            rewritten = self._extract_aggregates(
                expression, aggregates, preferred
            )
            final_items.append(SelectItem(rewritten, name))
        if having is not None:
            having = self._extract_aggregates(having, aggregates)

        has_grouping = bool(group_columns) or bool(aggregates)
        order_by = self._resolve_order(final_items, aggregates)

        quantifier_list = [
            self._quantifiers[entry.alias] for entry in self.from_entries
        ]
        if not has_grouping:
            box = SelectBox(
                quantifier_list,
                final_items,
                predicate=predicate,
                distinct=self.distinct,
                outer_joins=outer_joins,
            )
            box.output_order = order_by
            box.fetch_first = self.fetch_first
            return box

        needed = self._core_columns(
            final_items, predicate, group_columns, aggregates, having, order_by
        )
        core = SelectBox(
            quantifier_list,
            [SelectItem(column, column.name) for column in needed],
            predicate=predicate,
            outer_joins=outer_joins,
        )
        group_box = GroupByBox(
            BoxQuantifier("q$core", core), group_columns, aggregates
        )
        top = SelectBox(
            [BoxQuantifier("q$group", group_box)],
            final_items,
            predicate=having,
            distinct=self.distinct,
        )
        top.output_order = order_by
        top.fetch_first = self.fetch_first
        return top

    def _resolved_select_items(
        self,
    ) -> List[Tuple[Expression, str]]:
        resolved: List[Tuple[Expression, str]] = []
        used_names: Set[str] = set()
        counter = 0
        for expression, alias in self.raw_items:
            if expression is None:
                # ``*`` expansion, in FROM order.
                for entry in self.from_entries:
                    for name in self._columns_by_alias[entry.alias]:
                        resolved.append(
                            (ColumnRef(entry.alias, name), name)
                        )
                        used_names.add(name)
                continue
            expression = self._resolve(expression)
            if alias is None:
                if isinstance(expression, ColumnRef):
                    alias = expression.name
                else:
                    counter += 1
                    alias = f"expr{counter}"
            resolved.append((expression, alias))
            used_names.add(alias)
        return resolved

    def _require_column(
        self, expression: Expression, clause: str
    ) -> ColumnRef:
        if isinstance(expression, ColumnRef):
            return expression
        raise ParseError(f"{clause} supports plain columns only")

    def _extract_aggregates(
        self,
        expression: Expression,
        aggregates: List[Tuple[str, Aggregate]],
        preferred_name: Optional[str] = None,
    ) -> Expression:
        """Replace Aggregate nodes with references to computed outputs."""
        taken = {name for name, _aggregate in aggregates}

        def visit(node: Expression) -> Optional[Expression]:
            if not isinstance(node, Aggregate):
                return None
            for name, existing in aggregates:
                if existing == node:
                    return ColumnRef("", name)
            if preferred_name and preferred_name not in taken:
                name = preferred_name
            else:
                name = f"agg{len(aggregates) + 1}"
            taken.add(name)
            aggregates.append((name, node))
            return ColumnRef("", name)

        return transform(expression, visit)

    def _resolve_order(
        self,
        final_items: List[SelectItem],
        aggregates: List[Tuple[str, Aggregate]],
    ) -> OrderSpec:
        keys: List[OrderKey] = []
        by_alias = {item.name: item for item in final_items}
        for expression, direction in self.order_items:
            if isinstance(expression, Literal) and isinstance(
                expression.value, int
            ):
                position = expression.value
                if not 1 <= position <= len(final_items):
                    raise ParseError(f"ORDER BY position {position} out of range")
                target = final_items[position - 1].output
            elif (
                isinstance(expression, ColumnRef)
                and expression.qualifier == _UNRESOLVED
                and expression.name in by_alias
            ):
                target = by_alias[expression.name].output
            else:
                resolved = self._resolve(expression)
                if not isinstance(resolved, ColumnRef):
                    raise ParseError(
                        "ORDER BY supports columns, aliases, and positions"
                    )
                target = resolved
            keys.append(OrderKey(target, direction))
        return OrderSpec(keys)

    def _core_columns(
        self,
        final_items: List[SelectItem],
        predicate: Optional[Expression],
        group_columns: List[ColumnRef],
        aggregates: List[Tuple[str, Aggregate]],
        having: Optional[Expression],
        order_by: OrderSpec,
    ) -> List[ColumnRef]:
        """Base columns the core box must expose for the pipeline above."""
        needed: List[ColumnRef] = []

        def note(column: ColumnRef) -> None:
            if column.qualifier and column not in needed:
                needed.append(column)

        for column in group_columns:
            note(column)
        for _name, aggregate in aggregates:
            if aggregate.argument is not None:
                for column in sorted(
                    columns_of(aggregate.argument),
                    key=lambda c: (c.qualifier, c.name),
                ):
                    note(column)
        for item in final_items:
            for column in sorted(
                columns_of(item.expression),
                key=lambda c: (c.qualifier, c.name),
            ):
                note(column)
        if having is not None:
            for column in sorted(
                columns_of(having), key=lambda c: (c.qualifier, c.name)
            ):
                note(column)
        for key in order_by:
            note(key.column)
        return needed
