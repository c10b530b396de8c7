"""The differential oracle for the lexer and the auto-parameterizer.

``reference_tokenize`` is the character-at-a-time tokenizer that
``repro.parser.lexer.tokenize`` replaced, and ``reference_parameterize``
the two-list parameterizer that ``repro.service.parameterize`` replaced,
both kept verbatim apart from their names, so
``tests/parser/test_lexer_differential.py`` can hold the single-pattern
lexer and the one-pass parameterizer to their token streams, errors and
fingerprints. ``reference_parameterize`` returns ``(text, bindings,
type_signature)``.

Two behaviours differ on purpose: a digit that is not decimal (``'²'``)
lexes here as part of a NUMBER (which ``int`` then rejects with a bare
``ValueError``), and a ``date('...')`` whose string is not a date has
its string hoisted here, so the parser saw ``date(:__p0)``.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List

from repro.errors import ParseError
from repro.parser.lexer import KEYWORDS, Token, TokenKind
from repro.service.parameterize import _type_name

_OPERATORS = ("<>", "!=", "<=", ">=", "=", "<", ">", "+", "-", "*", "/")
_PUNCT = "(),."


def reference_tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises ParseError with position on bad input."""
    tokens: List[Token] = []
    line, column = 1, 1
    index = 0
    length = len(text)

    def advance(count: int) -> None:
        nonlocal index, line, column
        for _ in range(count):
            if index < length and text[index] == "\n":
                line += 1
                column = 1
            else:
                column += 1
            index += 1

    while index < length:
        char = text[index]
        if char in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", index):
            while index < length and text[index] != "\n":
                advance(1)
            continue
        start_line, start_column = line, column
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            lowered = word.lower()
            kind = (
                TokenKind.KEYWORD if lowered in KEYWORDS else TokenKind.IDENT
            )
            spelled = lowered if kind is TokenKind.KEYWORD else word
            tokens.append(Token(kind, spelled, start_line, start_column))
            advance(end - index)
            continue
        if char.isdigit() or (
            char == "." and index + 1 < length and text[index + 1].isdigit()
        ):
            end = index
            saw_dot = False
            while end < length and (
                text[end].isdigit() or (text[end] == "." and not saw_dot)
            ):
                if text[end] == ".":
                    # A dot not followed by a digit is a qualifier dot.
                    if end + 1 >= length or not text[end + 1].isdigit():
                        break
                    saw_dot = True
                end += 1
            tokens.append(
                Token(TokenKind.NUMBER, text[index:end], start_line, start_column)
            )
            advance(end - index)
            continue
        if char == ":":
            end = index + 1
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            if end == index + 1:
                raise ParseError("':' must introduce a host variable", line, column)
            tokens.append(
                Token(
                    TokenKind.PARAM,
                    text[index + 1 : end],
                    start_line,
                    start_column,
                )
            )
            advance(end - index)
            continue
        if char == "'":
            end = index + 1
            pieces: List[str] = []
            while True:
                if end >= length:
                    raise ParseError(
                        "unterminated string literal", start_line, start_column
                    )
                if text[end] == "'":
                    if end + 1 < length and text[end + 1] == "'":
                        pieces.append("'")
                        end += 2
                        continue
                    break
                pieces.append(text[end])
                end += 1
            tokens.append(
                Token(
                    TokenKind.STRING, "".join(pieces), start_line, start_column
                )
            )
            advance(end + 1 - index)
            continue
        matched = False
        for operator in _OPERATORS:
            if text.startswith(operator, index):
                tokens.append(
                    Token(TokenKind.OPERATOR, operator, start_line, start_column)
                )
                advance(len(operator))
                matched = True
                break
        if matched:
            continue
        if char in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, char, start_line, start_column))
            advance(1)
            continue
        raise ParseError(f"unexpected character {char!r}", line, column)
    tokens.append(Token(TokenKind.EOF, "", line, column))
    return tokens


def _render(token: Token) -> str:
    if token.kind is TokenKind.STRING:
        escaped = token.text.replace("'", "''")
        return f"'{escaped}'"
    if token.kind is TokenKind.PARAM:
        return f":{token.text}"
    return token.text


def _number_value(text: str) -> Any:
    if "." in text:
        import decimal

        return decimal.Decimal(text)
    return int(text)


def reference_parameterize(sql: str):
    """Extract literal constants from ``sql`` into a binding vector."""
    tokens = reference_tokenize(sql)
    taken = {
        token.text for token in tokens if token.kind is TokenKind.PARAM
    }

    counter = 0

    def fresh_name() -> str:
        nonlocal counter
        while True:
            name = f"__p{counter}"
            counter += 1
            if name not in taken:
                return name

    out: List[Token] = []
    bindings: Dict[str, Any] = {}
    types: List[str] = []
    in_list_depth = 0  # paren depth inside an IN (...) list, 0 = outside
    in_order_by = False  # numbers are output ordinals here

    def emit_parameter(value: Any, at: Token) -> None:
        name = fresh_name()
        bindings[name] = value
        types.append(_type_name(value))
        out.append(Token(TokenKind.PARAM, name, at.line, at.column))

    index = 0
    while index < len(tokens):
        token = tokens[index]
        if token.kind is TokenKind.EOF:
            break
        if in_list_depth:
            if token.kind is TokenKind.PUNCT and token.text == "(":
                in_list_depth += 1
            elif token.kind is TokenKind.PUNCT and token.text == ")":
                in_list_depth -= 1
            out.append(token)
            index += 1
            continue
        if (
            token.is_keyword("in")
            and tokens[index + 1].kind is TokenKind.PUNCT
            and tokens[index + 1].text == "("
            # IN (SELECT ...) is a subquery, not a value list: no
            # carve-out, its literals become parameters like any other.
            and not tokens[index + 2].is_keyword("select")
        ):
            in_list_depth = 1
            out.append(token)
            out.append(tokens[index + 1])
            index += 2
            continue
        if (
            token.kind is TokenKind.IDENT
            and token.text.lower() == "date"
            and index + 3 < len(tokens)
            and tokens[index + 1].kind is TokenKind.PUNCT
            and tokens[index + 1].text == "("
            and tokens[index + 2].kind is TokenKind.STRING
            and tokens[index + 3].kind is TokenKind.PUNCT
            and tokens[index + 3].text == ")"
        ):
            try:
                value = datetime.date.fromisoformat(tokens[index + 2].text)
            except ValueError:
                value = None
            if value is not None:
                emit_parameter(value, token)
                index += 4
                continue
        if token.kind is TokenKind.KEYWORD:
            if token.text == "order":
                in_order_by = True
            elif token.text in ("fetch", "union", "select"):
                in_order_by = False
        elif token.kind is TokenKind.PUNCT and token.text == ")":
            # Closing a derived table / parenthesized branch ends any
            # ORDER BY clause that was open inside it.
            in_order_by = False
        if token.kind is TokenKind.NUMBER:
            # FETCH FIRST n and ORDER BY ordinals stay literal: both
            # are plan shape, not predicate constants.
            if in_order_by or (out and out[-1].is_keyword("first")):
                out.append(token)
            else:
                emit_parameter(_number_value(token.text), token)
            index += 1
            continue
        if token.kind is TokenKind.STRING:
            emit_parameter(token.text, token)
            index += 1
            continue
        out.append(token)
        index += 1

    text = " ".join(_render(token) for token in out)
    return text, bindings, tuple(types)
