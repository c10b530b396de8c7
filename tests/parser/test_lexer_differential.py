"""The single-pattern lexer and the one-pass parameterizer against the
implementations they replaced (``tests/parser/reference_lexer.py``).

Every input must give the same token tuples, or the same ``ParseError``
message, line and column, and the same parameterized ``text``,
``bindings`` (by ``repr``) and ``type_signature``. One stream may
differ: a digit that is not decimal (``'²'``), which the reference
lexed into a NUMBER that ``int`` then rejected with a bare
``ValueError``, is now an unexpected character at its position.
"""

import datetime

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import ParseError
from repro.parser import TokenKind, tokenize
from repro.service import parameterize
from repro.tpcd.queries import _QUERIES
from repro.verify.gen import QueryGenerator, generate_schema

from perf.workloads import WORKLOADS
from tests.parser.reference_lexer import (
    reference_parameterize,
    reference_tokenize,
)


def _outcome(function, text):
    try:
        return function(text)
    except ParseError as error:
        return ("ParseError", error.args[0], error.line, error.column)


def _offset(text, line, column):
    lines = text.split("\n")
    return sum(len(piece) + 1 for piece in lines[: line - 1]) + column - 1


def _non_decimal_digit_error(outcome, text):
    """The offset of the non-decimal digit ``outcome`` rejects, or None."""
    if not isinstance(outcome, tuple):
        return None
    _, message, line, column = outcome
    offset = _offset(text, line, column)
    char = text[offset : offset + 1]
    if char.isdigit() and not char.isdecimal():
        if message == f"unexpected character {char!r}":
            return offset
    return None


def assert_lexes_like_reference(text):
    expected = _outcome(reference_tokenize, text)
    actual = _outcome(tokenize, text)
    if actual == expected:
        return
    offset = _non_decimal_digit_error(actual, text)
    assert offset is not None, (text, actual, expected)
    # Up to the digit the two lexers agree, and the reference took the
    # digit into a NUMBER (or failed further on).
    prefix = text[:offset]
    assert _outcome(tokenize, prefix) == _outcome(reference_tokenize, prefix)
    if isinstance(expected, tuple):
        assert expected[2:] > actual[2:], (text, actual, expected)
    else:
        assert any(
            token.kind is TokenKind.NUMBER
            and not token.text.replace(".", "").isdecimal()
            for token in expected
        ), (text, expected)


def _has_bad_date(tokens):
    """A ``date('…')`` whose string is no date: the reference hoisted
    that string (``date(:__p0)``), the parameterizer leaves it inline."""
    for index in range(len(tokens) - 3):
        if (
            tokens[index].kind is TokenKind.IDENT
            and tokens[index].text.lower() == "date"
            and tokens[index + 1][:2] == (TokenKind.PUNCT, "(")
            and tokens[index + 2].kind is TokenKind.STRING
            and tokens[index + 3][:2] == (TokenKind.PUNCT, ")")
        ):
            try:
                datetime.date.fromisoformat(tokens[index + 2].text)
            except ValueError:
                return True
    return False


def assert_parameterizes_like_reference(text):
    assert_lexes_like_reference(text)
    lexed = _outcome(tokenize, text)
    if _non_decimal_digit_error(lexed, text) is not None:
        with pytest.raises(ParseError) as info:
            parameterize(text)
        assert ("ParseError", info.value.args[0], info.value.line,
                info.value.column) == lexed
        return
    if isinstance(lexed, tuple):
        expected = _outcome(reference_parameterize, text)
        assert _outcome(parameterize, text) == expected == lexed
        return
    assert not _has_bad_date(lexed), text
    expected_text, expected_bindings, expected_types = (
        reference_parameterize(text)
    )
    actual = parameterize(text)
    assert actual.text == expected_text
    assert repr(actual.bindings) == repr(expected_bindings)
    assert actual.type_signature == expected_types
    # The parser's input lexes like the fingerprint, and each of its
    # tokens is a submitted token or a marker at a literal's position.
    assert [token[:2] for token in actual.tokens] == [
        token[:2] for token in tokenize(actual.text)
    ]
    positions = {token[2:] for token in lexed}
    for token in actual.tokens:
        if token.kind is TokenKind.PARAM and token.text in actual.bindings:
            assert token[2:] in positions
        else:
            assert token in lexed


def _gen_corpus():
    fuzz_schema = generate_schema(2026)
    for seed in range(40):
        generator = QueryGenerator(fuzz_schema, seed)
        for _ in range(3):
            yield generator.generate().sql()
    seed7 = QueryGenerator(generate_schema(7), 7)
    for _ in range(50):
        yield seed7.generate().sql()


def _perf_corpus():
    for workload in WORKLOADS.values():
        batches = workload.generate(1, workload.size, {"customers": 150})
        for statements in batches:
            for statement in statements:
                yield statement.sql


def test_tpcd_queries():
    for text in _QUERIES.values():
        assert_parameterizes_like_reference(text)


def test_verify_gen_seed_corpora():
    for text in _gen_corpus():
        assert_parameterizes_like_reference(text)


def test_perf_workload_statements():
    for text in sorted(set(_perf_corpus())):
        assert_parameterizes_like_reference(text)


TRAPS = [
    # .5 against the qualifier dot
    "select a.b, a.5, a . 5, .5, 5., 1.x, 1..2, 1.5.3 from t",
    "select t.x from t where t.y = .25",
    # 1. before a non-digit
    "select 1. from t",
    "select 1.e from t",
    "1.",
    # '' escapes
    "select 'it''s', '''', '', 'a''''b' from t",
    "select 'a''",
    "select ''''''",
    # -- comment at end of input, no newline
    "select x from t -- trailing comment",
    "select x from t --",
    "select x - -1 from t",
    "--",
    # bare :
    "select x from t where a = :",
    "select x from t where a = : b",
    "select x from t where a = :b and c = :_ and d = :1",
    # unterminated string spanning a newline
    "select x from t\nwhere a = 'abc\ndef",
    "select 'ok\nstill ok' , x\n  from t where y = 'open\n\n",
    # \r\n line ends
    "select x\r\nfrom t\r\nwhere a = 1 #",
    "select x\r\n  from t\r\n  where a = 'x\r\ny' and b = 2",
    # non-ASCII letters and digits
    "select é, ß, 一 from t where ٣ = ٣.٣",
    "select x² from t",
    "select x from t where a = 1²",
    "select x from t where a = ²",
    "select x from t where a = .²",
    "select x from t order by ²",
    "select x from t where a in (½)",
    "select _x, x_1, x1y from t where a = 1abc",
    # operators, punctuation and stray characters
    "select a<>b, a!=b, a<=b, a>=b, a=b, a<b, a>b, a+b-c*d/e from t",
    "select a ! b",
    "select\fx\vfrom\xa0t\u3000where a = 1",
    # ORDER BY ordinals and FETCH FIRST stay literal; a closing paren
    # or UNION ends the ORDER BY
    "select x from (select y from u order by 1) as d where x = 5",
    "select a from t order by 2 union select b from u where c = 3",
    "select a from t where b in (1, (2), 'x') order by 1 fetch first 2 rows"
    " only",
    "select x from t where a = 1 ;",
    "",
    "   \t\n  ",
]


@pytest.mark.parametrize("text", TRAPS)
def test_traps(text):
    assert_parameterizes_like_reference(text)


def test_non_decimal_digits_are_parse_errors():
    for text, column in (("²", 1), ("1²", 2), ("select 1.²", 10)):
        with pytest.raises(ParseError) as info:
            tokenize(text)
        assert info.value.args[0] == "unexpected character '²'"
        assert (info.value.line, info.value.column) == (1, column)
    assert [token.text for token in tokenize("٣.٥")[:-1]] == ["٣.٥"]
    assert parameterize("select x from t where a = ٣").bindings == {
        "__p0": 3
    }


_FRAGMENTS = list(
    "abcxyzABCXYZ_0123456789 \t\r\n\f'\":.,()<>=!+-*/#;"
) + ["é", "ß", "一", "٣", "²", "½", "\xa0"] + [
    "select ", " from ", " where ", " in ", " order by ", " fetch first ",
    " union ", "(select ", "date('1995-03-15')", "--", "''", ".5", "1.",
    "null", " and ",
]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_FRAGMENTS), max_size=30).map("".join))
def test_generated_text(text):
    lexed = _outcome(reference_tokenize, text)
    assume(isinstance(lexed, tuple) or not _has_bad_date(lexed))
    assert_parameterizes_like_reference(text)
