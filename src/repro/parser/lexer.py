"""SQL tokenizer: one scan of one compiled pattern per statement.

``tokenize`` walks ``_TOKEN``, an alternation with one named group per
token class, over the text and returns ``Token`` tuples with 1-based
line and column positions:

* identifiers start with a letter (``str.isalpha``) or ``_`` and go on
  over ``str.isalnum`` / ``_`` characters (``\\w``);
* numbers are decimal digits (``\\d``, so ``'٣'`` is the number 3) with
  at most one ``.`` followed by a digit: ``a.5`` is ``a`` then ``.5``,
  and ``1.`` before a non-digit is ``1`` then a qualifier dot. A digit
  that is not decimal (``'²'``) is an unexpected character;
* strings escape a quote by doubling it; ``--`` comments run to the end
  of the line.

The plan cache's auto-parameterizer (``repro.service.parameterize``)
rewrites this token list and hands it to the parser, so a statement is
lexed once and parse errors point into the text that was submitted.
"""

from __future__ import annotations

import enum
import re
from typing import List, NamedTuple

from repro.errors import ParseError

KEYWORDS = {
    "select",
    "distinct",
    "from",
    "where",
    "group",
    "by",
    "having",
    "order",
    "asc",
    "desc",
    "and",
    "or",
    "not",
    "as",
    "in",
    "between",
    "is",
    "null",
    "case",
    "when",
    "then",
    "else",
    "end",
    "join",
    "inner",
    "left",
    "outer",
    "on",
    "union",
    "all",
    "fetch",
    "first",
    "rows",
    "row",
    "only",
}


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    PARAM = "param"  # host variable, :name
    EOF = "eof"


# The members as module constants: reading one off the Enum class
# (``TokenKind.IDENT``) costs about 15 global reads on CPython 3.11, and
# per-token loops read several per token.
KEYWORD, IDENT, NUMBER, STRING, OPERATOR, PUNCT, PARAM, EOF = (
    TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.NUMBER, TokenKind.STRING,
    TokenKind.OPERATOR, TokenKind.PUNCT, TokenKind.PARAM, TokenKind.EOF,
)


class Token(NamedTuple):
    kind: TokenKind
    text: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        return self.kind is KEYWORD and self.text == word

    @property
    def shown(self) -> str:
        """The text a parse error quotes for this token."""
        return self.text


class Marker(Token):
    """A host-variable token standing where ``parameterize`` hoisted a
    literal. It parses as the PARAM ``text`` names and equals that
    plain token, but a parse error quotes the literal's own token text,
    so the message matches parsing the submitted statement."""

    def __new__(cls, name: str, literal: Token) -> "Marker":
        marker = super().__new__(cls, PARAM, name, literal.line, literal.column)
        marker.literal = literal.text
        return marker

    @property
    def shown(self) -> str:
        return self.literal


# A word cannot start with a decimal digit, so ``1abc`` is ``1`` then
# ``abc``. A string closes at a quote that no second quote follows, so
# ``'a''`` is unterminated rather than ``'a'`` plus a stray quote.
# ``other`` takes any one character left over: the quote of an unclosed
# string, or a character that starts no token.
_TOKEN = re.compile(
    r"""
    (?P<space>[ \t\r\n]+|--[^\n]*)
    |(?P<word>[^\W\d]\w*)
    |(?P<number>\d+(?:\.\d+)?|\.\d+)
    |(?P<string>'(?:[^']|'')*'(?!'))
    |(?P<param>:\w*)
    |(?P<operator><>|!=|<=|>=|[=<>+\-*/])
    |(?P<punct>[(),.])
    |(?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)

_PLAIN_KINDS = {"number": NUMBER, "operator": OPERATOR, "punct": PUNCT}


def tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises ParseError with position on bad input."""
    tokens: List[Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first char
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        lexeme = match.group()
        start = match.start()
        column = start - line_start + 1
        if group == "space" or group == "string":
            if group == "string":
                tokens.append(
                    Token(
                        STRING,
                        lexeme[1:-1].replace("''", "'"),
                        line,
                        column,
                    )
                )
            if "\n" in lexeme:
                line += lexeme.count("\n")
                line_start = start + lexeme.rindex("\n") + 1
            continue
        if group == "word":
            lowered = lexeme.lower()
            if lowered in KEYWORDS:
                token = Token(KEYWORD, lowered, line, column)
            elif lexeme[0].isalpha() or lexeme[0] == "_":
                token = Token(IDENT, lexeme, line, column)
            else:  # a numeric character that is not a decimal digit
                raise ParseError(
                    f"unexpected character {lexeme[0]!r}", line, column
                )
        elif group == "param":
            if len(lexeme) == 1:
                raise ParseError(
                    "':' must introduce a host variable", line, column
                )
            token = Token(PARAM, lexeme[1:], line, column)
        elif group == "other":
            if lexeme == "'":
                raise ParseError("unterminated string literal", line, column)
            raise ParseError(f"unexpected character {lexeme!r}", line, column)
        else:
            token = Token(_PLAIN_KINDS[group], lexeme, line, column)
        tokens.append(token)
    tokens.append(Token(EOF, "", line, len(text) - line_start + 1))
    return tokens
