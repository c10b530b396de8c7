"""Auto-parameterization: literals out, host variables in.

Works on the token stream, not the parse tree, so the warm path of the
plan cache never builds a QGM graph at all: one pass swaps literal
tokens for ``:__pN`` markers, and the result, rendered once, *is* the
cache fingerprint. Two statements that differ only in literal spelling
("WHERE seg=3" vs "where  SEG = 7") normalize to the same fingerprint
and share one plan. A cache miss parses that token list, so a statement
is lexed once and a parse error points into the submitted text.

What gets parameterized:

* NUMBER and STRING literal tokens;
* ``date('...')`` constructs, collapsed into a single date-valued
  parameter (this is what varies across TPC-D replay workloads); a
  string that is no date stays inline for the parser to reject.

Conservative carve-outs — literals that change plan *shape* stay
inline:

* IN-list elements: selectivity scales with list arity, so two IN
  predicates of different lengths must not share a fingerprint (they
  cannot — the arity is in the token stream), and folding the list into
  parameters would defeat the compiler's hoisted-membership kernel.
  The carve-out applies to *value lists only*: ``IN (SELECT ...)`` is a
  subquery, not an arity-bearing list, and its interior literals
  parameterize like any other predicate constants — otherwise replay
  workloads that only vary subquery literals would never share plans.
* FETCH FIRST n: the row count steers the Top-N-vs-full-sort choice and
  LIMIT placement; it stays a plan property, not a binding.
* ORDER BY numbers: the grammar only admits numbers there as output
  ordinals (``order by 2 desc``), which are sort keys — pure plan
  shape.
* NULL keywords: ``col = NULL`` is never true and is analyzed
  differently from ``col = :p`` (no structural FD), so masking NULL as
  a parameter would change predicate analysis.

The §4.1 safety argument: a host variable "qualifies as a constant" for
order reasoning, so every plan decision the optimizer makes for the
parameterized statement — sargable index bounds included, since the
scan resolves parameter bounds at execution — is valid for all
bindings.
"""

from __future__ import annotations

import datetime
import decimal
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.parser.lexer import (
    IDENT, KEYWORD, NUMBER, PARAM, PUNCT, STRING, Token, tokenize,
)

@dataclass(frozen=True)
class ParameterizedQuery:
    """A statement with its literals hoisted into bindings.

    ``text`` is the normalized, re-parseable SQL with ``:__pN`` markers;
    it doubles as the plan-cache fingerprint. ``bindings`` maps marker
    names to the extracted values; ``type_signature`` is the value types
    in marker order (part of the cache key). ``tokens`` (ending in EOF,
    at the submitted text's positions) is what ``text`` renders.
    """

    text: str
    bindings: Dict[str, Any] = field(compare=False)
    type_signature: Tuple[str, ...] = ()
    tokens: List[Token] = field(
        default_factory=list, compare=False, repr=False
    )

    @property
    def fingerprint(self) -> str:
        return self.text


def _type_name(value: Any) -> str:
    if value is None:
        return "null"
    return type(value).__name__


def _render(token: Token) -> str:
    if token.kind is STRING:
        escaped = token.text.replace("'", "''")
        return f"'{escaped}'"
    if token.kind is PARAM:
        return f":{token.text}"
    return token.text


def parameterize(sql: str) -> ParameterizedQuery:
    """Extract literal constants from ``sql`` into a binding vector."""
    tokens = tokenize(sql)
    taken = {token.text for token in tokens if token.kind is PARAM}
    out: List[Token] = []
    bindings: Dict[str, Any] = {}
    types: List[str] = []
    counter = 0
    in_list_depth = 0  # paren depth inside an IN (...) list, 0 = outside
    in_order_by = False  # numbers are output ordinals here

    def emit_parameter(value: Any, at: Token) -> None:
        nonlocal counter
        name = f"__p{counter}"
        while name in taken:
            counter += 1
            name = f"__p{counter}"
        counter += 1
        bindings[name] = value
        types.append(_type_name(value))
        out.append(Token(PARAM, name, at.line, at.column))

    index = 0
    last = len(tokens) - 1  # the EOF token
    while index < last:
        token = tokens[index]
        kind = token.kind
        index += 1
        if in_list_depth:
            if kind is PUNCT:
                if token.text == "(":
                    in_list_depth += 1
                elif token.text == ")":
                    in_list_depth -= 1
        elif kind is NUMBER:
            # FETCH FIRST n and ORDER BY ordinals stay literal: both
            # are plan shape, not predicate constants.
            if not in_order_by and not (out and out[-1].is_keyword("first")):
                text = token.text
                value = decimal.Decimal(text) if "." in text else int(text)
                emit_parameter(value, token)
                continue
        elif kind is STRING:
            emit_parameter(token.text, token)
            continue
        elif kind is KEYWORD:
            if (
                token.text == "in"
                and tokens[index].kind is PUNCT
                and tokens[index].text == "("
                # IN (SELECT ...) is a subquery, not a value list: its
                # literals become parameters like any other.
                and not tokens[index + 1].is_keyword("select")
            ):
                in_list_depth = 1
                out.append(token)
                token = tokens[index]
                index += 1
            elif token.text == "order":
                in_order_by = True
            elif token.text in ("fetch", "union", "select"):
                in_order_by = False
        elif (
            kind is IDENT
            and token.text.lower() == "date"
            and tokens[index].text == "("
            and tokens[index].kind is PUNCT
            and tokens[index + 1].kind is STRING
            and tokens[index + 2].text == ")"
            and tokens[index + 2].kind is PUNCT
        ):
            string = tokens[index + 1]
            try:
                value = datetime.date.fromisoformat(string.text)
            except ValueError:  # left for the parser to report
                out.append(token)
                out.append(tokens[index])
                token = string
                index += 2
            else:
                emit_parameter(value, token)
                index += 3
                continue
        elif kind is PUNCT and token.text == ")":
            # Closing a derived table / parenthesized branch ends any
            # ORDER BY clause that was open inside it.
            in_order_by = False
        out.append(token)

    text = " ".join([_render(token) for token in out])
    out.append(tokens[last])
    return ParameterizedQuery(
        text=text,
        bindings=bindings,
        type_signature=tuple(types),
        tokens=out,
    )
