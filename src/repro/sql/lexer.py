r"""SQL lexer: one compiled master pattern, one pass.

:func:`tokenize` walks the text with ``re.finditer`` over a single
alternation of named groups (the standard library's tokenizer idiom): each
match is one lexeme, ``lastgroup`` says which kind, and a catch-all last
alternative guarantees the matches tile the text, so a malformed lexeme
surfaces as its own group instead of a gap.  The character loop runs inside
the regex engine; Python sees one iteration per lexeme.

Produces a flat list of :class:`Token` objects.  Keywords are recognized
case-insensitively and reported with ``TokenType.KEYWORD`` and an upper-cased
``value``; identifiers keep their original spelling (the engine folds
unquoted identifiers to lower case at name-resolution time, like PostgreSQL).

Dialect notes (things the paper's SQL Server context needs):

* ``#name`` lexes as a temp-table identifier (``is_temp`` marker preserved in
  the raw text; the parser interprets it).
* ``@name`` lexes as a :attr:`TokenType.PARAM` token (procedure parameter or
  named client parameter).
* ``?`` is a positional parameter placeholder.
* ``[bracketed identifiers]`` and ``"quoted identifiers"`` are supported.
* string literals use single quotes with ``''`` escaping.

Outside ASCII the character classes are the regex engine's: white space is
``\s`` and word characters are ``\w`` (the same sets as ``str.isspace`` and
``str.isalnum`` plus ``_``); a number is made of decimal digits ``\d`` —
what ``int()`` accepts, so Arabic-Indic one (U+0661) is a digit and
superscript two (U+00B2) is not — and a word may start with any word character
that is not a decimal digit.  (The character-at-a-time lexer this replaced
asked ``str.isdigit``, which says yes to U+00B2, and then died in ``int()``.)
"""

from __future__ import annotations

import enum
import re

from repro.errors import SQLSyntaxError

__all__ = ["TokenType", "Token", "tokenize", "KEYWORDS"]


class TokenType(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "ident"
    NUMBER = "number"
    STRING = "string"
    OPERATOR = "operator"
    PUNCT = "punct"
    PARAM = "param"  # @name
    PLACEHOLDER = "placeholder"  # ?
    EOF = "eof"


#: Reserved words.  Anything lexed as a bare word that is in this set becomes
#: a KEYWORD token; everything else is an IDENT.
KEYWORDS = frozenset(
    """
    SELECT FROM WHERE GROUP BY HAVING ORDER ASC DESC LIMIT OFFSET TOP DISTINCT ALL
    AS AND OR NOT IN IS NULL LIKE ESCAPE BETWEEN EXISTS CASE WHEN THEN ELSE END
    JOIN INNER LEFT RIGHT FULL OUTER CROSS ON UNION
    INSERT INTO VALUES UPDATE SET DELETE
    CREATE TABLE TEMPORARY TEMP DROP IF TRUE FALSE
    PRIMARY KEY UNIQUE DEFAULT
    INT INTEGER BIGINT SMALLINT FLOAT REAL DOUBLE PRECISION DECIMAL NUMERIC
    CHAR CHARACTER VARCHAR TEXT STRING DATE BOOLEAN BOOL
    COUNT SUM AVG MIN MAX
    CAST INTERVAL DAY MONTH YEAR EXTRACT SUBSTRING FOR
    BEGIN COMMIT ROLLBACK TRANSACTION WORK
    PROCEDURE PROC EXEC EXECUTE RETURN DECLARE
    CHECKPOINT SHUTDOWN EXPLAIN VIEW INDEX
    OF
    """.split()
)


class Token:
    """A single lexical token with its source position (0-based offset)."""

    __slots__ = ("type", "value", "pos", "line")

    def __init__(self, type: TokenType, value: str, pos: int, line: int):
        self.type = type
        self.value = value
        self.pos = pos
        self.line = line

    def matches(self, type_: TokenType, value: str | None = None) -> bool:
        """True when this token has ``type_`` and (if given) ``value``."""
        return self.type is type_ and (value is None or self.value == value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Token):
            return NotImplemented
        return (self.type, self.value, self.pos, self.line) == (
            other.type, other.value, other.pos, other.line,
        )

    def __hash__(self) -> int:
        return hash((self.type, self.value, self.pos, self.line))

    def __repr__(self) -> str:  # compact, for parser error messages
        return f"{self.type.name}({self.value!r})"


#: The master pattern.  Order matters: a well-formed lexeme comes before the
#: catch-all that reports its malformed opening, comments before the operators
#: they start with, numbers before the ``.`` punctuation.
_MASTER = re.compile(
    r"""
      (?P<SPACE>    \s+ | --[^\n]* | /\*.*?\*/ )
    | (?P<WORD>     [^\W\d]\w* )
    | (?P<PUNCT>    [(),;] | \.(?!\d) )
    | (?P<NUMBER>   (?: \d+ (?:\.\d*)? | \.\d+ ) (?: [eE][+-]?\d+ )? )
    | (?P<STRING>   '[^']* (?: ''[^']* )* ' (?!') )
    | (?P<OPERATOR> <= | >= | <> | != | \|\| | [=<>+\-*%] | /(?!\*) )
    | (?P<PLACEHOLDER> \? )
    | (?P<PARAM>    @\w+ )
    | (?P<TEMP>     \#\w+ )
    | (?P<QUOTED>   "[^"]*" | \[[^\]]*\] )
    | (?P<MISMATCH> . )
    """,
    re.VERBOSE | re.DOTALL,
)

#: groups whose lexeme is the token's value as it stands
_VERBATIM = {
    "PUNCT": TokenType.PUNCT,
    "NUMBER": TokenType.NUMBER,
    "OPERATOR": TokenType.OPERATOR,
    "PLACEHOLDER": TokenType.PLACEHOLDER,
    "TEMP": TokenType.IDENT,
}

#: what a lexeme that only the catch-all matched was trying to be
_MALFORMED = {
    "'": "unterminated string literal",
    "/": "unterminated block comment",  # a '/' not before '*' is an operator
    '"': "unterminated quoted identifier",
    "[": "unterminated quoted identifier",
    "@": "'@' must introduce a parameter name",
    "#": "'#' must introduce a temp table name",
}


def tokenize(text: str) -> list[Token]:
    """Lex ``text`` into tokens, ending with a single EOF token.

    Raises :class:`~repro.errors.SQLSyntaxError` on unterminated strings or
    characters outside the dialect.
    """
    tokens: list[Token] = []
    append = tokens.append
    verbatim = _VERBATIM.get
    keywords, keyword, ident = KEYWORDS, TokenType.KEYWORD, TokenType.IDENT  # hot: locals
    line = 1
    for match in _MASTER.finditer(text):
        kind = match.lastgroup
        value = match.group()
        if kind == "SPACE":
            if "\n" in value:
                line += value.count("\n")
        elif kind == "WORD":
            upper = value.upper()
            if upper in keywords:
                append(Token(keyword, upper, match.start(), line))
            else:
                append(Token(ident, value, match.start(), line))
        elif (type_ := verbatim(kind)) is not None:
            append(Token(type_, value, match.start(), line))
        elif kind == "STRING":
            append(Token(TokenType.STRING, value[1:-1].replace("''", "'"), match.start(), line))
            line += value.count("\n")
        elif kind == "PARAM":
            append(Token(TokenType.PARAM, value[1:], match.start(), line))
        elif kind == "QUOTED":
            append(Token(ident, value[1:-1], match.start(), line))
            line += value.count("\n")
        else:
            message = _MALFORMED.get(value) or f"unexpected character {value!r}"
            raise SQLSyntaxError(message, position=match.start(), line=line)
    append(Token(TokenType.EOF, "", len(text), line))
    return tokens
