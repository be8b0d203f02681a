"""Unit tests for the SQL lexer."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import SQLSyntaxError
from repro.sql import Token, TokenType, parse, tokenize


def kinds(sql: str) -> list[tuple[TokenType, str]]:
    return [(t.type, t.value) for t in tokenize(sql)[:-1]]  # drop EOF


def test_empty_input_yields_only_eof():
    tokens = tokenize("")
    assert len(tokens) == 1
    assert tokens[0].type is TokenType.EOF


def test_keywords_are_case_insensitive_and_uppercased():
    assert kinds("select SeLeCt SELECT") == [(TokenType.KEYWORD, "SELECT")] * 3


def test_identifiers_keep_their_spelling():
    assert kinds("FooBar") == [(TokenType.IDENT, "FooBar")]


def test_integer_and_float_literals():
    assert kinds("42 3.14 .5 1e3 2.5E-2") == [
        (TokenType.NUMBER, "42"),
        (TokenType.NUMBER, "3.14"),
        (TokenType.NUMBER, ".5"),
        (TokenType.NUMBER, "1e3"),
        (TokenType.NUMBER, "2.5E-2"),
    ]


def test_number_followed_by_dot_does_not_eat_ident():
    # "1.x" lexes as number 1. then ident x — parser rejects; lexer is greedy
    tokens = kinds("1.5x")
    assert tokens[0] == (TokenType.NUMBER, "1.5")
    assert tokens[1] == (TokenType.IDENT, "x")


def test_string_literal_basic():
    assert kinds("'hello'") == [(TokenType.STRING, "hello")]


def test_string_literal_doubled_quote_escape():
    assert kinds("'it''s'") == [(TokenType.STRING, "it's")]


def test_string_literal_empty():
    assert kinds("''") == [(TokenType.STRING, "")]


def test_string_literal_with_newline():
    assert kinds("'a\nb'") == [(TokenType.STRING, "a\nb")]


def test_unterminated_string_raises_with_position():
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize("SELECT 'oops")
    assert excinfo.value.position == 7


def test_line_comment_is_skipped():
    assert kinds("SELECT -- comment here\n 1") == [
        (TokenType.KEYWORD, "SELECT"),
        (TokenType.NUMBER, "1"),
    ]


def test_block_comment_is_skipped():
    assert kinds("SELECT /* multi\nline */ 1") == [
        (TokenType.KEYWORD, "SELECT"),
        (TokenType.NUMBER, "1"),
    ]


def test_unterminated_block_comment_raises():
    with pytest.raises(SQLSyntaxError):
        tokenize("SELECT /* never closed")


def test_temp_table_name_lexes_as_single_ident():
    assert kinds("#work") == [(TokenType.IDENT, "#work")]


def test_bare_hash_raises():
    with pytest.raises(SQLSyntaxError):
        tokenize("SELECT # FROM t")


def test_named_parameter():
    assert kinds("@limit") == [(TokenType.PARAM, "limit")]


def test_bare_at_raises():
    with pytest.raises(SQLSyntaxError):
        tokenize("SELECT @ FROM t")


def test_positional_placeholder():
    assert kinds("?") == [(TokenType.PLACEHOLDER, "?")]


def test_quoted_identifier_double_quotes():
    assert kinds('"count"') == [(TokenType.IDENT, "count")]


def test_quoted_identifier_brackets():
    assert kinds("[order]") == [(TokenType.IDENT, "order")]


def test_unterminated_quoted_identifier_raises():
    with pytest.raises(SQLSyntaxError):
        tokenize('"never closed')


@pytest.mark.parametrize("op", ["<=", ">=", "<>", "!=", "=", "<", ">", "+", "-", "*", "/", "%", "||"])
def test_operators(op):
    assert kinds(f"a {op} b")[1] == (TokenType.OPERATOR, op)


def test_two_char_operators_win_over_one_char():
    assert kinds("a<=b")[1] == (TokenType.OPERATOR, "<=")


@pytest.mark.parametrize("punct", list("(),.;"))
def test_punctuation(punct):
    assert (TokenType.PUNCT, punct) in kinds(f"a {punct} b")


def test_unknown_character_raises_with_line():
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize("SELECT 1\nFROM t WHERE x ~ 2")
    assert excinfo.value.line == 2


def test_line_numbers_tracked():
    tokens = tokenize("SELECT\n1")
    assert tokens[0].line == 1
    assert tokens[1].line == 2


def test_token_matches_helper():
    token = tokenize("SELECT")[0]
    assert token.matches(TokenType.KEYWORD, "SELECT")
    assert not token.matches(TokenType.KEYWORD, "FROM")
    assert token.matches(TokenType.KEYWORD)


def test_full_statement_token_stream():
    sql = "SELECT a.b, count(*) FROM t a WHERE x >= 1.5 AND y LIKE 'z%'"
    types = [t.type for t in tokenize(sql)[:-1]]
    assert TokenType.EOF not in types
    assert types[0] is TokenType.KEYWORD


def test_underscore_identifiers():
    assert kinds("_private my_col2") == [
        (TokenType.IDENT, "_private"),
        (TokenType.IDENT, "my_col2"),
    ]


# ------------------------------------------------- pinned against the old lexer
#
# tests/data/lexer_golden.json was recorded with the character-at-a-time lexer
# of commit b4e6ea1 (scripts/record_lexer_golden.py); the master-pattern lexer
# must reproduce every stream and every error in it.

GOLDEN = json.loads((Path(__file__).parent / "data" / "lexer_golden.json").read_text())


def test_golden_fixture_covers_what_it_claims():
    names = set(GOLDEN["streams"])
    assert sum(n.startswith("tpch.") for n in names) == 22
    assert {"rf1.0.0", "rf1.1.1", "rf2.0.0", "rf2.1.1", "sample"} <= names
    assert sum(n.startswith("chaos.") for n in names) >= 30
    assert len(GOLDEN["errors"]) == 12


@pytest.mark.parametrize("name", sorted(GOLDEN["streams"]))
def test_token_stream_matches_the_recorded_one(name):
    recorded = GOLDEN["streams"][name]
    stream = [[t.type.name, t.value, t.pos, t.line] for t in tokenize(recorded["text"])]
    assert stream == recorded["tokens"]


@pytest.mark.parametrize("name", sorted(GOLDEN["errors"]))
def test_lexer_error_matches_the_recorded_one(name):
    recorded = GOLDEN["errors"][name]
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize(recorded["text"])
    error = excinfo.value
    assert (error.args[0], error.position, error.line) == (
        recorded["message"], recorded["position"], recorded["line"],
    )


def test_unterminated_string_with_an_escaped_quote_points_at_its_opening_quote():
    # the pattern must not back off to the shorter literal 'it' and blame "'s"
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize("SELECT 'it''s")
    assert excinfo.value.args[0] == "unterminated string literal"
    assert excinfo.value.position == 7


def test_tokens_are_slotted_values():
    token = tokenize("SELECT")[0]
    assert not hasattr(token, "__dict__")
    assert token == Token(TokenType.KEYWORD, "SELECT", 0, 1)
    assert token != Token(TokenType.IDENT, "SELECT", 0, 1)
    assert hash(token) == hash(Token(TokenType.KEYWORD, "SELECT", 0, 1))
    assert repr(token) == "KEYWORD('SELECT')"


# ------------------------------------------------------------------- non-ASCII
#
# Where str.isdigit / isalnum / isspace (the old lexer) and \d / \w / \s (this
# one) could disagree.  \s and \w are the same sets as isspace and isalnum + _;
# \d is the decimal digits only, which is what int() and float() accept.


def test_no_break_space_is_white_space_as_before():
    assert kinds("a\xa0b c") == [(TokenType.IDENT, name) for name in "abc"]


def test_accented_letters_start_and_continue_identifiers_as_before():
    assert kinds("é café_1 Ünïcode") == [
        (TokenType.IDENT, "é"),
        (TokenType.IDENT, "café_1"),
        (TokenType.IDENT, "Ünïcode"),
    ]


def test_arabic_indic_digits_are_number_digits_as_before_because_int_accepts_them():
    assert kinds("١٢ 3٤.٥") == [(TokenType.NUMBER, "١٢"), (TokenType.NUMBER, "3٤.٥")]
    assert parse("SELECT ١٢").items[0].expr.value == 12
    assert kinds("x١") == [(TokenType.IDENT, "x١")]  # and word characters after a letter


def test_superscript_two_is_a_word_character_not_a_digit_because_int_rejects_it():
    # str.isdigit("²") is true: the old lexer made NUMBER("²") and the parser
    # then died in int() with a ValueError.  It is \w but not \d.
    assert kinds("x²") == [(TokenType.IDENT, "x²")]
    assert kinds("²") == [(TokenType.IDENT, "²")]
    assert kinds("1²") == [(TokenType.NUMBER, "1"), (TokenType.IDENT, "²")]


def test_a_symbol_that_is_neither_word_nor_space_is_an_unexpected_character():
    with pytest.raises(SQLSyntaxError, match="unexpected character '€'"):
        tokenize("SELECT €")


def test_newlines_inside_a_quoted_identifier_count_as_lines():
    # fixed with the rewrite: the old lexer did not count them, so every
    # later token and error reported a line too small
    tokens = tokenize('SELECT "two\nlines", x')
    assert [t.line for t in tokens] == [1, 1, 2, 2, 2]
    with pytest.raises(SQLSyntaxError) as excinfo:
        tokenize("SELECT [a\nb] $")
    assert excinfo.value.line == 2
