"""Recursive-descent parser producing :mod:`repro.sql.ast` nodes.

Grammar precedence (loosest first)::

    expr        := or_expr
    or_expr     := and_expr (OR and_expr)*
    and_expr    := not_expr (AND not_expr)*
    not_expr    := NOT not_expr | predicate
    predicate   := additive (comparison | IS NULL | IN | BETWEEN | LIKE)?
    additive    := multiplicative ((+|-|'||') multiplicative)*
    multiplicative := unary ((*|/|%) unary)*
    unary       := - unary | primary
    primary     := literal | param | '?' | func | CASE | CAST | EXISTS
                 | '(' expr | select ')' | column

Statements supported: SELECT (joins, subqueries, GROUP BY/HAVING, ORDER BY,
LIMIT/OFFSET, TOP, INTO), INSERT (VALUES / SELECT), UPDATE, DELETE,
CREATE/DROP TABLE, CREATE/DROP PROCEDURE, EXEC, BEGIN/COMMIT/ROLLBACK,
SET, CHECKPOINT.
"""

from __future__ import annotations

from repro.errors import SQLSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenType, tokenize

__all__ = ["parse", "parse_script", "parse_expression", "Parser"]

_TYPE_KEYWORDS = {
    "INT": "INT",
    "INTEGER": "INT",
    "BIGINT": "INT",
    "SMALLINT": "INT",
    "FLOAT": "FLOAT",
    "REAL": "FLOAT",
    "DOUBLE": "FLOAT",
    "DECIMAL": "DECIMAL",
    "NUMERIC": "DECIMAL",
    "CHAR": "CHAR",
    "CHARACTER": "CHAR",
    "VARCHAR": "VARCHAR",
    "TEXT": "TEXT",
    "STRING": "TEXT",
    "DATE": "DATE",
    "BOOLEAN": "BOOLEAN",
    "BOOL": "BOOLEAN",
}

_AGGREGATES = {"COUNT", "SUM", "AVG", "MIN", "MAX"}

_KEYWORD = TokenType.KEYWORD
_PUNCT = TokenType.PUNCT
_OPERATOR = TokenType.OPERATOR
_EOF = TokenType.EOF


def parse(text: str) -> ast.Statement:
    """Parse exactly one statement; trailing ``;`` is allowed."""
    parser = Parser(text)
    stmt = parser.parse_statement()
    parser.skip_semicolons()
    parser.expect_eof()
    return stmt


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ``;``-separated batch of statements."""
    parser = Parser(text)
    statements: list[ast.Statement] = []
    parser.skip_semicolons()
    while not parser.at_eof():
        statements.append(parser.parse_statement())
        parser.skip_semicolons()
    return statements


def parse_expression(text: str) -> ast.Expr:
    """Parse a standalone expression (used by tests and tools)."""
    parser = Parser(text)
    expr = parser.parse_expr()
    parser.expect_eof()
    return expr


class Parser:
    """Single-use parser over one piece of SQL text."""

    def __init__(self, text: str):
        self.text = text
        self.tokens: list[Token] = tokenize(text)
        self.pos = 0
        self._placeholder_count = 0

    # ---- token plumbing ---------------------------------------------------

    # ``pos`` never passes the EOF token (``advance`` stops there), so the
    # current token is always ``tokens[pos]``; the accept_* helpers index it
    # directly — they run a few hundred times per script.

    def peek(self, offset: int = 0) -> Token:
        if not offset:
            return self.tokens[self.pos]
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not _EOF:
            self.pos += 1
        return token

    def at_eof(self) -> bool:
        return self.tokens[self.pos].type is _EOF

    def error(self, message: str) -> SQLSyntaxError:
        token = self.peek()
        return SQLSyntaxError(
            f"{message} (got {token!r} at line {token.line})",
            position=token.pos,
            line=token.line,
        )

    def accept_keyword(self, *words: str) -> str | None:
        """Consume and return the keyword if the next token is one of
        ``words``; otherwise leave the stream alone and return None."""
        token = self.tokens[self.pos]
        if token.type is _KEYWORD and token.value in words:
            self.pos += 1
            return token.value
        return None

    def expect_keyword(self, *words: str) -> str:
        value = self.accept_keyword(*words)
        if value is None:
            raise self.error(f"expected {' or '.join(words)}")
        return value

    def accept_punct(self, char: str) -> bool:
        token = self.tokens[self.pos]
        if token.type is _PUNCT and token.value == char:
            self.pos += 1
            return True
        return False

    def expect_punct(self, char: str) -> None:
        if not self.accept_punct(char):
            raise self.error(f"expected {char!r}")

    def accept_operator(self, *ops: str) -> str | None:
        token = self.tokens[self.pos]
        if token.type is _OPERATOR and token.value in ops:
            self.pos += 1
            return token.value
        return None

    #: keywords that commonly appear as identifiers and are safe to accept
    #: as such when the grammar position demands a name
    _IDENT_KEYWORDS = frozenset(
        {"DATE", "YEAR", "MONTH", "DAY", "KEY", "TEXT", "STRING", "WORK"}
    )

    def expect_ident(self, what: str = "identifier") -> str:
        token = self.peek()
        if token.type is TokenType.IDENT:
            self.advance()
            return token.value
        # Allow non-reserved-in-context keywords as identifiers (e.g. a
        # column named "year" or "text"); conservative list.
        if token.type is TokenType.KEYWORD and token.value in self._IDENT_KEYWORDS:
            self.advance()
            return token.value.lower()
        raise self.error(f"expected {what}")

    def expect_table_name(self, what: str = "table name") -> str:
        """A table name, or — where a procedure body may address a table its
        caller names — a parameter, kept as ``@name``."""
        if self.peek().type is TokenType.PARAM:
            return "@" + self.advance().value
        return self.expect_ident(what)

    def skip_semicolons(self) -> None:
        while self.accept_punct(";"):
            pass

    def expect_eof(self) -> None:
        if not self.at_eof():
            raise self.error("unexpected trailing input")

    # ---- statements -------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.peek()
        if token.type is not TokenType.KEYWORD:
            raise self.error("expected a statement keyword")
        word = token.value
        if word == "SELECT":
            return self.parse_select(allow_as_of=True)
        if word == "INSERT":
            return self.parse_insert()
        if word == "UPDATE":
            return self.parse_update()
        if word == "DELETE":
            return self.parse_delete()
        if word == "CREATE":
            return self.parse_create()
        if word == "DROP":
            return self.parse_drop()
        if word in ("EXEC", "EXECUTE"):
            return self.parse_exec()
        if word == "BEGIN":
            self.advance()
            self.accept_keyword("TRANSACTION", "WORK")
            return ast.BeginTransaction()
        if word == "COMMIT":
            self.advance()
            self.accept_keyword("TRANSACTION", "WORK")
            return ast.Commit()
        if word == "ROLLBACK":
            self.advance()
            self.accept_keyword("TRANSACTION", "WORK")
            return ast.Rollback()
        if word == "SET":
            return self.parse_set()
        if word == "CHECKPOINT":
            self.advance()
            return ast.Checkpoint()
        if word == "EXPLAIN":
            self.advance()
            return ast.Explain(self.parse_select(allow_as_of=True))
        raise self.error(f"unsupported statement {word}")

    # SELECT ----------------------------------------------------------------

    def parse_select(self, allow_as_of: bool = False) -> "ast.Select | ast.UnionSelect":
        """A full selectable: SELECT core, optional UNION chain, then
        ORDER BY / LIMIT / OFFSET applying to the whole, then an optional
        trailing ``AS OF <ts>`` (top-level statements only — a snapshot
        cut applies to a whole query, never to one subquery of it)."""
        first = self.parse_select_core()
        parts = [first]
        all_flags: list[bool] = []
        while self.accept_keyword("UNION"):
            all_flags.append(bool(self.accept_keyword("ALL")))
            parts.append(self.parse_select_core())

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            order_by.append(self.parse_order_item())
            while self.accept_punct(","):
                order_by.append(self.parse_order_item())
        limit = self._expect_int("LIMIT count") if self.accept_keyword("LIMIT") else None
        offset = self._expect_int("OFFSET count") if self.accept_keyword("OFFSET") else None

        as_of: ast.Expr | None = None
        if self._at_as_of():
            if not allow_as_of:
                raise self.error(
                    "AS OF is only allowed on a whole SELECT statement "
                    "(or an INSERT source), not in subqueries or views"
                )
            self.advance()  # AS
            self.advance()  # OF
            as_of = self.parse_expr()

        if len(parts) == 1:
            select = first
            select.order_by = order_by
            if limit is not None:
                select.limit = limit  # TOP n already parsed in the core
            select.offset = offset
            select.as_of = as_of
            return select
        if any(part.into for part in parts[1:]):
            raise self.error("INTO belongs to the first SELECT of a UNION")
        # the INTO names where the combined result goes: the union owns it
        into, first.into = first.into, None
        return ast.UnionSelect(
            parts=parts,
            all_flags=all_flags,
            order_by=order_by,
            limit=limit,
            offset=offset,
            into=into,
            as_of=as_of,
        )

    def _at_as_of(self) -> bool:
        """True when the next two tokens are the ``AS OF`` keywords — the
        lookahead that keeps ``AS`` usable as the alias introducer."""
        return self.peek().matches(TokenType.KEYWORD, "AS") and self.peek(1).matches(
            TokenType.KEYWORD, "OF"
        )

    def parse_select_core(self) -> ast.Select:
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        else:
            self.accept_keyword("ALL")
        limit: int | None = None
        if self.accept_keyword("TOP"):
            limit = self._expect_int("TOP count")

        items = [self.parse_select_item()]
        while self.accept_punct(","):
            items.append(self.parse_select_item())

        into: str | None = None
        if self.accept_keyword("INTO"):
            into = self.expect_table_name("INTO table name")

        from_: ast.TableRef | None = None
        if self.accept_keyword("FROM"):
            from_ = self.parse_from_clause()

        where = self.parse_expr() if self.accept_keyword("WHERE") else None

        group_by: list[ast.Expr] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expr())
            while self.accept_punct(","):
                group_by.append(self.parse_expr())

        having = self.parse_expr() if self.accept_keyword("HAVING") else None

        return ast.Select(
            items=items,
            from_=from_,
            where=where,
            group_by=group_by,
            having=having,
            order_by=[],
            limit=limit,
            offset=None,
            distinct=distinct,
            into=into,
        )

    def parse_select_item(self) -> ast.SelectItem:
        token = self.peek()
        if token.matches(TokenType.OPERATOR, "*"):
            self.advance()
            return ast.SelectItem(ast.Star())
        # t.* — identifier '.' '*'
        if (
            token.type is TokenType.IDENT
            and self.peek(1).matches(TokenType.PUNCT, ".")
            and self.peek(2).matches(TokenType.OPERATOR, "*")
        ):
            table = self.advance().value
            self.advance()  # .
            self.advance()  # *
            return ast.SelectItem(ast.Star(table=table))
        expr = self.parse_expr()
        alias = None
        if self._at_as_of():
            pass  # trailing AS OF <ts>, not an alias — parse_select owns it
        elif self.accept_keyword("AS"):
            # after AS any word is unambiguous — even reserved ones like
            # "count" (result metadata frequently aliases back to such names)
            token = self.peek()
            if token.type in (TokenType.IDENT, TokenType.KEYWORD):
                self.advance()
                alias = token.value if token.type is TokenType.IDENT else token.value.lower()
            else:
                raise self.error("expected alias")
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return ast.SelectItem(expr, alias)

    def parse_order_item(self) -> ast.OrderItem:
        expr = self.parse_expr()
        desc = False
        if self.accept_keyword("DESC"):
            desc = True
        else:
            self.accept_keyword("ASC")
        return ast.OrderItem(expr, desc)

    def parse_from_clause(self) -> ast.TableRef:
        ref = self.parse_join_chain()
        while self.accept_punct(","):  # comma join = cross join
            right = self.parse_join_chain()
            ref = ast.Join(ref, right, kind="CROSS")
        return ref

    def parse_join_chain(self) -> ast.TableRef:
        ref = self.parse_table_primary()
        while True:
            kind = None
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self.parse_table_primary()
                ref = ast.Join(ref, right, kind="CROSS")
                continue
            if self.accept_keyword("INNER"):
                kind = "INNER"
            elif self.accept_keyword("LEFT"):
                self.accept_keyword("OUTER")
                kind = "LEFT"
            elif self.peek().matches(TokenType.KEYWORD, "JOIN"):
                kind = "INNER"
            if kind is None:
                return ref
            self.expect_keyword("JOIN")
            right = self.parse_table_primary()
            self.expect_keyword("ON")
            on = self.parse_expr()
            ref = ast.Join(ref, right, kind=kind, on=on)

    def parse_table_primary(self) -> ast.TableRef:
        if self.accept_punct("("):
            select = self.parse_select()
            self.expect_punct(")")
            self.accept_keyword("AS")
            alias = self.expect_ident("derived table alias")
            return ast.SubquerySource(select, alias)
        name = self.expect_table_name()
        alias = None
        if self._at_as_of():
            pass  # trailing AS OF <ts>, not an alias — parse_select owns it
        elif self.accept_keyword("AS"):
            alias = self.expect_ident("alias")
        elif self.peek().type is TokenType.IDENT:
            alias = self.advance().value
        return ast.TableName(name, alias)

    # INSERT / UPDATE / DELETE ------------------------------------------------

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_table_name()
        columns: list[str] | None = None
        if self.peek().matches(TokenType.PUNCT, "(") and self._looks_like_column_list():
            self.expect_punct("(")
            columns = [self.expect_ident("column name")]
            while self.accept_punct(","):
                columns.append(self.expect_ident("column name"))
            self.expect_punct(")")
        if self.accept_keyword("VALUES"):
            rows = [self._parse_value_row()]
            while self.accept_punct(","):
                rows.append(self._parse_value_row())
            return ast.Insert(table, columns=columns, rows=rows)
        if self.peek().matches(TokenType.KEYWORD, "SELECT") or self.peek().matches(
            TokenType.PUNCT, "("
        ):
            self.accept_punct("(")
            # AS OF is legal here: the source select reads a snapshot while
            # the insert writes live — Phoenix's fill batch materializes
            # point-in-time results exactly this way.
            select = self.parse_select(allow_as_of=True)
            # tolerate a closing paren if we consumed an opening one
            self.accept_punct(")")
            return ast.Insert(table, columns=columns, select=select)
        raise self.error("expected VALUES or SELECT in INSERT")

    def _looks_like_column_list(self) -> bool:
        """Disambiguate ``INSERT INTO t (a, b) ...`` from
        ``INSERT INTO t (SELECT ...)``."""
        return not self.peek(1).matches(TokenType.KEYWORD, "SELECT")

    def _parse_value_row(self) -> list[ast.Expr]:
        self.expect_punct("(")
        row = [self.parse_expr()]
        while self.accept_punct(","):
            row.append(self.parse_expr())
        self.expect_punct(")")
        return row

    def parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_table_name()
        self.expect_keyword("SET")
        assignments = [self._parse_assignment()]
        while self.accept_punct(","):
            assignments.append(self._parse_assignment())
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.Update(table, assignments, where)

    def _parse_assignment(self) -> tuple[str, ast.Expr]:
        column = self.expect_ident("column name")
        if self.accept_operator("=") is None:
            raise self.error("expected '=' in SET")
        return column, self.parse_expr()

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_table_name()
        where = self.parse_expr() if self.accept_keyword("WHERE") else None
        return ast.Delete(table, where)

    # DDL ---------------------------------------------------------------------

    def parse_create(self) -> ast.Statement:
        self.expect_keyword("CREATE")
        temporary = bool(self.accept_keyword("TEMPORARY", "TEMP"))
        if self.accept_keyword("TABLE"):
            return self.parse_create_table(temporary)
        if self.accept_keyword("PROCEDURE", "PROC"):
            if temporary:
                raise self.error("use a #name for a temporary procedure")
            return self.parse_create_procedure()
        if self.accept_keyword("VIEW"):
            if temporary:
                raise self.error("temporary views are not supported")
            return self.parse_create_view()
        if self.accept_keyword("INDEX"):
            if temporary:
                raise self.error("temporary indexes are not supported")
            name = self.expect_ident("index name")
            self.expect_keyword("ON")
            table = self.expect_ident("table name")
            self.expect_punct("(")
            column = self.expect_ident("column name")
            self.expect_punct(")")
            return ast.CreateIndex(name, table, column)
        raise self.error("expected TABLE, VIEW, INDEX, or PROCEDURE after CREATE")

    def parse_create_table(self, temporary: bool) -> ast.CreateTable:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            # EXISTS is a keyword in our lexer
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident("table name")
        if name.startswith("#"):
            temporary = True
        self.expect_punct("(")
        columns: list[ast.ColumnDef] = []
        primary_key: list[str] = []
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                self.expect_punct("(")
                primary_key.append(self.expect_ident("key column"))
                while self.accept_punct(","):
                    primary_key.append(self.expect_ident("key column"))
                self.expect_punct(")")
            else:
                columns.append(self.parse_column_def())
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        for col in columns:
            if col.primary_key and col.name not in primary_key:
                primary_key.append(col.name)
        return ast.CreateTable(
            name=name,
            columns=columns,
            primary_key=primary_key,
            temporary=temporary,
            if_not_exists=if_not_exists,
        )

    def parse_column_def(self) -> ast.ColumnDef:
        name = self.expect_ident("column name")
        type_ = self.parse_type()
        not_null = False
        primary_key = False
        default: ast.Expr | None = None
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                not_null = True
                continue
            if self.accept_keyword("NULL"):
                continue
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                primary_key = True
                not_null = True
                continue
            if self.accept_keyword("DEFAULT"):
                default = self.parse_expr()
                continue
            if self.accept_keyword("UNIQUE"):
                continue
            break
        return ast.ColumnDef(name, type_, not_null=not_null, primary_key=primary_key, default=default)

    def parse_type(self) -> ast.TypeSpec:
        token = self.peek()
        if token.type is not TokenType.KEYWORD or token.value not in _TYPE_KEYWORDS:
            raise self.error("expected a type name")
        self.advance()
        canonical = _TYPE_KEYWORDS[token.value]
        if token.value == "DOUBLE":
            self.accept_keyword("PRECISION")
        if token.value == "CHARACTER":
            # CHARACTER VARYING not supported; plain CHARACTER only
            pass
        length = precision = scale = None
        if self.accept_punct("("):
            first = self._expect_int("type length")
            if self.accept_punct(","):
                precision, scale = first, self._expect_int("type scale")
            elif canonical in ("DECIMAL",):
                precision = first
            else:
                length = first
            self.expect_punct(")")
        return ast.TypeSpec(canonical, length=length, precision=precision, scale=scale)

    def parse_create_view(self) -> ast.CreateView:
        name = self.expect_ident("view name")
        columns: list[str] = []
        if self.accept_punct("("):
            columns.append(self.expect_ident("view column"))
            while self.accept_punct(","):
                columns.append(self.expect_ident("view column"))
            self.expect_punct(")")
        self.expect_keyword("AS")
        select = self.parse_select()
        return ast.CreateView(name, select, columns=[c.lower() for c in columns])

    def parse_drop(self) -> ast.Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = self._accept_if_exists()
            name = self.expect_ident("table name")
            return ast.DropTable(name, if_exists=if_exists)
        if self.accept_keyword("PROCEDURE", "PROC"):
            if_exists = self._accept_if_exists()
            name = self.expect_ident("procedure name")
            return ast.DropProcedure(name, if_exists=if_exists)
        if self.accept_keyword("VIEW"):
            if_exists = self._accept_if_exists()
            name = self.expect_ident("view name")
            return ast.DropView(name, if_exists=if_exists)
        if self.accept_keyword("INDEX"):
            if_exists = self._accept_if_exists()
            name = self.expect_ident("index name")
            return ast.DropIndex(name, if_exists=if_exists)
        raise self.error("expected TABLE, VIEW, INDEX, or PROCEDURE after DROP")

    def _accept_if_exists(self) -> bool:
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            return True
        return False

    # Procedures ----------------------------------------------------------------

    def parse_create_procedure(self) -> ast.CreateProcedure:
        name = self.expect_ident("procedure name")
        params: list[tuple[str, ast.TypeSpec | None]] = []
        paren = self.accept_punct("(")
        while self.peek().type is TokenType.PARAM:
            pname = self.advance().value
            # no type: the argument reaches the body as the caller passed it
            untyped = self.peek().type is TokenType.PUNCT or self.peek().matches(
                TokenType.KEYWORD, "AS"
            )
            params.append((pname, None if untyped else self.parse_type()))
            if not self.accept_punct(","):
                break
        if paren:
            self.expect_punct(")")
        self.expect_keyword("AS")
        body: list[ast.Statement] = []
        wrapped = bool(self.accept_keyword("BEGIN"))
        while True:
            self.skip_semicolons()
            if wrapped and self.accept_keyword("END"):
                break
            if self.at_eof():
                if wrapped:
                    raise self.error("expected END to close procedure body")
                break
            body.append(self.parse_statement())
            self.skip_semicolons()
            if not wrapped and self.at_eof():
                break
        if not body:
            raise self.error("empty procedure body")
        return ast.CreateProcedure(name, params=params, body=body)

    def parse_exec(self) -> ast.ExecProcedure:
        self.expect_keyword("EXEC", "EXECUTE")
        name = self.expect_ident("procedure name")
        args: list[ast.Expr] = []
        if not self.at_eof() and not self.peek().matches(TokenType.PUNCT, ";"):
            args.append(self._parse_exec_arg())
            while self.accept_punct(","):
                args.append(self._parse_exec_arg())
        return ast.ExecProcedure(name, args)

    def _parse_exec_arg(self) -> ast.Expr:
        # "@name = expr" named style collapses to positional in our dialect,
        # but we still accept and discard the name for compatibility.
        if self.peek().type is TokenType.PARAM and self.peek(1).matches(TokenType.OPERATOR, "="):
            self.advance()
            self.advance()
        return self.parse_expr()

    # SET -------------------------------------------------------------------------

    def parse_set(self) -> ast.SetOption:
        self.expect_keyword("SET")
        token = self.peek()
        if token.type in (TokenType.IDENT, TokenType.KEYWORD):
            name = self.advance().value
        else:
            raise self.error("expected option name after SET")
        self.accept_operator("=")
        value_token = self.peek()
        if value_token.type is TokenType.STRING:
            value: object = self.advance().value
        elif value_token.type is TokenType.NUMBER:
            value = _number(self.advance().value)
        elif value_token.type in (TokenType.IDENT, TokenType.KEYWORD):
            word = self.advance().value
            value = {"TRUE": True, "FALSE": False, "ON": True, "OFF": False}.get(
                word.upper(), word
            )
        else:
            raise self.error("expected option value after SET")
        return ast.SetOption(name.lower(), value)

    # ---- expressions ---------------------------------------------------------

    def parse_expr(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.accept_keyword("OR"):
            left = ast.Binary("OR", left, self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.accept_keyword("AND"):
            left = ast.Binary("AND", left, self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.accept_keyword("NOT"):
            return ast.Unary("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> ast.Expr:
        left = self.parse_additive()
        negated = bool(self.accept_keyword("NOT"))
        if self.accept_keyword("BETWEEN"):
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated=negated)
        if self.accept_keyword("IN"):
            self.expect_punct("(")
            if self.peek().matches(TokenType.KEYWORD, "SELECT"):
                select = self.parse_select()
                self.expect_punct(")")
                return ast.InSelect(left, select, negated=negated)
            items = [self.parse_expr()]
            while self.accept_punct(","):
                items.append(self.parse_expr())
            self.expect_punct(")")
            return ast.InList(left, items, negated=negated)
        if self.accept_keyword("LIKE"):
            pattern = self.parse_additive()
            escape = None
            if self.accept_keyword("ESCAPE"):
                escape = self.parse_additive()
            return ast.Like(left, pattern, escape=escape, negated=negated)
        if negated:
            raise self.error("expected BETWEEN, IN, or LIKE after NOT")
        if self.accept_keyword("IS"):
            negated = bool(self.accept_keyword("NOT"))
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=negated)
        op = self.accept_operator("=", "<>", "!=", "<", "<=", ">", ">=")
        if op is not None:
            right = self.parse_additive()
            return ast.Binary("<>" if op == "!=" else op, left, right)
        return left

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while True:
            op = self.accept_operator("+", "-", "||")
            if op is None:
                return left
            left = ast.Binary(op, left, self.parse_multiplicative())

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while True:
            op = self.accept_operator("*", "/", "%")
            if op is None:
                return left
            left = ast.Binary(op, left, self.parse_unary())

    def parse_unary(self) -> ast.Expr:
        if self.accept_operator("-"):
            operand = self.parse_unary()
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)):
                return ast.Literal(-operand.value)
            return ast.Unary("-", operand)
        if self.accept_operator("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> ast.Expr:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            return ast.Literal(_number(token.value))
        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.PARAM:
            self.advance()
            return ast.Param(token.value)
        if token.type is TokenType.PLACEHOLDER:
            self.advance()
            index = self._placeholder_count
            self._placeholder_count += 1
            return ast.Placeholder(index)
        if token.type is TokenType.KEYWORD:
            return self._parse_keyword_primary(token)
        if token.matches(TokenType.PUNCT, "("):
            self.advance()
            if self.peek().matches(TokenType.KEYWORD, "SELECT"):
                select = self.parse_select()
                self.expect_punct(")")
                return ast.ScalarSelect(select)
            expr = self.parse_expr()
            self.expect_punct(")")
            return expr
        if token.type is TokenType.IDENT:
            return self._parse_ident_primary()
        raise self.error("expected an expression")

    def _parse_keyword_primary(self, token: Token) -> ast.Expr:
        word = token.value
        if word == "NULL":
            self.advance()
            return ast.Literal(None)
        if word in ("TRUE", "FALSE"):
            self.advance()
            return ast.Literal(word == "TRUE")
        if word == "DATE" and self.peek(1).type is TokenType.STRING:
            self.advance()
            value = self.advance().value
            return ast.Literal(value, is_date=True)
        if word == "INTERVAL":
            self.advance()
            amount_token = self.advance()
            if amount_token.type not in (TokenType.STRING, TokenType.NUMBER):
                raise self.error("expected INTERVAL amount")
            unit = self.expect_keyword("DAY", "MONTH", "YEAR")
            return ast.IntervalLiteral(int(float(amount_token.value)), unit)
        if word == "CASE":
            return self._parse_case()
        if word == "CAST":
            self.advance()
            self.expect_punct("(")
            operand = self.parse_expr()
            self.expect_keyword("AS")
            type_ = self.parse_type()
            self.expect_punct(")")
            return ast.Cast(operand, type_)
        if word == "EXISTS":
            self.advance()
            self.expect_punct("(")
            select = self.parse_select()
            self.expect_punct(")")
            return ast.Exists(select)
        if word == "EXTRACT":
            self.advance()
            self.expect_punct("(")
            part = self.expect_keyword("YEAR", "MONTH", "DAY")
            self.expect_keyword("FROM")
            operand = self.parse_expr()
            self.expect_punct(")")
            return ast.ExtractExpr(part, operand)
        if word == "SUBSTRING":
            return self._parse_substring()
        if word in _AGGREGATES:
            return self._parse_call(word)
        if word in ("YEAR", "MONTH", "DAY") and self.peek(1).matches(TokenType.PUNCT, "("):
            # YEAR(expr) convenience form → EXTRACT
            part = self.advance().value
            self.expect_punct("(")
            operand = self.parse_expr()
            self.expect_punct(")")
            return ast.ExtractExpr(part, operand)
        if word in self._IDENT_KEYWORDS:
            # a column that happens to be named like a soft keyword
            # (``text``, ``key``, ``date`` without a literal, ...)
            self.advance()
            name = word.lower()
            if self.accept_punct("."):
                column = self.expect_ident("column name")
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)
        raise self.error("expected an expression")

    def _parse_case(self) -> ast.CaseExpr:
        self.expect_keyword("CASE")
        operand = None
        if not self.peek().matches(TokenType.KEYWORD, "WHEN"):
            operand = self.parse_expr()
        whens: list[tuple[ast.Expr, ast.Expr]] = []
        while self.accept_keyword("WHEN"):
            cond = self.parse_expr()
            self.expect_keyword("THEN")
            result = self.parse_expr()
            whens.append((cond, result))
        if not whens:
            raise self.error("CASE requires at least one WHEN")
        else_ = self.parse_expr() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return ast.CaseExpr(operand, whens, else_)

    def _parse_substring(self) -> ast.SubstringExpr:
        self.expect_keyword("SUBSTRING")
        self.expect_punct("(")
        operand = self.parse_expr()
        if self.accept_keyword("FROM"):
            start = self.parse_expr()
            length = self.parse_expr() if self.accept_keyword("FOR") else None
        else:
            self.expect_punct(",")
            start = self.parse_expr()
            length = self.parse_expr() if self.accept_punct(",") else None
        self.expect_punct(")")
        return ast.SubstringExpr(operand, start, length)

    def _parse_call(self, name: str) -> ast.FuncCall:
        self.advance()
        self.expect_punct("(")
        if self.accept_operator("*"):
            self.expect_punct(")")
            return ast.FuncCall(name.lower(), star=True)
        distinct = bool(self.accept_keyword("DISTINCT"))
        args = [self.parse_expr()]
        while self.accept_punct(","):
            args.append(self.parse_expr())
        self.expect_punct(")")
        return ast.FuncCall(name.lower(), args=args, distinct=distinct)

    def _parse_ident_primary(self) -> ast.Expr:
        name = self.advance().value
        if self.peek().matches(TokenType.PUNCT, "("):
            # scalar function call by identifier (upper, lower, abs, ...)
            self.expect_punct("(")
            if self.accept_punct(")"):
                return ast.FuncCall(name.lower())
            args = [self.parse_expr()]
            while self.accept_punct(","):
                args.append(self.parse_expr())
            self.expect_punct(")")
            return ast.FuncCall(name.lower(), args=args)
        if self.accept_punct("."):
            column = self.expect_ident("column name")
            return ast.ColumnRef(column, table=name)
        return ast.ColumnRef(name)

    def _expect_int(self, what: str) -> int:
        token = self.peek()
        if token.type is not TokenType.NUMBER:
            raise self.error(f"expected integer {what}")
        self.advance()
        value = _number(token.value)
        if not isinstance(value, int):
            raise self.error(f"expected integer {what}")
        return value


def _number(text: str) -> int | float:
    """Convert numeric literal text to int when exact, else float."""
    if text.isdigit():
        return int(text)
    return float(text)
