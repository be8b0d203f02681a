"""SQL abstract syntax tree.

Every node is a frozen-ish dataclass with a :meth:`sql` method that renders
the node back to dialect-conformant SQL text.  Round-tripping matters here:
Phoenix/ODBC rewrites application statements (appending ``WHERE 0=1``,
redirecting temp-table names, wrapping DML in transactions) and the safest
way to do that is parse → transform → render, rather than string surgery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

__all__ = [
    "Node",
    "Expr",
    "Statement",
    "Literal",
    "ColumnRef",
    "Star",
    "Param",
    "Placeholder",
    "Unary",
    "Binary",
    "IsNull",
    "Between",
    "InList",
    "InSelect",
    "Like",
    "Exists",
    "FuncCall",
    "CaseExpr",
    "Cast",
    "ScalarSelect",
    "IntervalLiteral",
    "ExtractExpr",
    "SubstringExpr",
    "SelectItem",
    "OrderItem",
    "TableRef",
    "TableName",
    "SubquerySource",
    "Join",
    "Select",
    "UnionSelect",
    "Insert",
    "Update",
    "Delete",
    "TypeSpec",
    "ColumnDef",
    "CreateTable",
    "DropTable",
    "CreateProcedure",
    "DropProcedure",
    "ExecProcedure",
    "BeginTransaction",
    "Commit",
    "Rollback",
    "SetOption",
    "Checkpoint",
    "Explain",
    "CreateView",
    "DropView",
    "CreateIndex",
    "DropIndex",
    "quote_literal",
    "AGGREGATE_NAMES",
    "TABLE_NAME_FIELD",
    "PROCEDURE_NAME_FIELD",
]

#: Binary operators rendered with surrounding spaces, in precedence order
#: (used by the parser; kept here so renderers and parser agree).
COMPARISON_OPS = frozenset({"=", "<>", "!=", "<", "<=", ">", ">="})
ARITHMETIC_OPS = frozenset({"+", "-", "*", "/", "%", "||"})
LOGICAL_OPS = frozenset({"AND", "OR"})
#: The function names that aggregate rows (lower-case); any other call is scalar.
AGGREGATE_NAMES = frozenset({"count", "sum", "avg", "min", "max"})


def quote_ident(name: str) -> str:
    """Quote an identifier when its bare spelling would lex as a keyword or
    contains characters outside the bare-identifier alphabet.  Needed when
    DDL is *generated* from result metadata — a result column may legally be
    called ``count`` or ``sum``."""
    from repro.sql.lexer import KEYWORDS  # local import avoids a cycle at load

    bare_ok = (
        name
        and (name[0].isalpha() or name[0] in "_#")
        and all(c.isalnum() or c == "_" for c in name.lstrip("#"))
        and name.upper() not in KEYWORDS
    )
    return name if bare_ok else f'"{name}"'


def quote_literal(value: object) -> str:
    """Render a Python value as a SQL literal."""
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    text = str(value).replace("'", "''")
    return f"'{text}'"


class Node:
    """Base class for all AST nodes."""

    def sql(self) -> str:
        raise NotImplementedError

    def __str__(self) -> str:
        return self.sql()


class Expr(Node):
    """Base class for expression nodes."""


class Statement(Node):
    """Base class for statement nodes."""


# --------------------------------------------------------------------------
# Expressions
# --------------------------------------------------------------------------


@dataclass
class Literal(Expr):
    """A constant: number, string, boolean, NULL, or DATE 'yyyy-mm-dd'."""

    value: object
    is_date: bool = False

    def sql(self) -> str:
        if self.is_date:
            return f"DATE {quote_literal(str(self.value))}"
        return quote_literal(self.value)


@dataclass
class ColumnRef(Expr):
    """A (possibly qualified) column reference."""

    name: str
    table: str | None = None

    def sql(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass
class Star(Expr):
    """``*`` or ``t.*`` in a select list or COUNT(*)."""

    table: str | None = None

    def sql(self) -> str:
        return f"{self.table}.*" if self.table else "*"


@dataclass
class Param(Expr):
    """A named parameter ``@name`` (procedure parameter or client binding)."""

    name: str

    def sql(self) -> str:
        return f"@{self.name}"


@dataclass
class Placeholder(Expr):
    """A positional ``?`` parameter; ``index`` is assigned left to right."""

    index: int

    def sql(self) -> str:
        return "?"


@dataclass
class Unary(Expr):
    """Unary operator: ``-x`` or ``NOT x``."""

    op: str
    operand: Expr

    def sql(self) -> str:
        if self.op.upper() == "NOT":
            # outer parens matter: postfix predicates (IS NULL, IN, ...)
            # bind tighter than NOT, so "NOT x IS NULL" would re-parse as
            # NOT (x IS NULL)
            return f"(NOT ({self.operand.sql()}))"
        return f"{self.op}({self.operand.sql()})"


@dataclass
class Binary(Expr):
    """Binary operator over two sub-expressions (arithmetic, comparison,
    AND/OR)."""

    op: str
    left: Expr
    right: Expr

    def sql(self) -> str:
        return f"({self.left.sql()} {self.op} {self.right.sql()})"


@dataclass
class IsNull(Expr):
    """``expr IS [NOT] NULL``."""

    operand: Expr
    negated: bool = False

    def sql(self) -> str:
        word = "IS NOT NULL" if self.negated else "IS NULL"
        return f"({self.operand.sql()} {word})"


@dataclass
class Between(Expr):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expr
    low: Expr
    high: Expr
    negated: bool = False

    def sql(self) -> str:
        word = "NOT BETWEEN" if self.negated else "BETWEEN"
        return f"({self.operand.sql()} {word} {self.low.sql()} AND {self.high.sql()})"


@dataclass
class InList(Expr):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expr
    items: list[Expr]
    negated: bool = False

    def sql(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        inner = ", ".join(item.sql() for item in self.items)
        return f"({self.operand.sql()} {word} ({inner}))"


@dataclass
class InSelect(Expr):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expr
    select: "Select"
    negated: bool = False

    def sql(self) -> str:
        word = "NOT IN" if self.negated else "IN"
        return f"({self.operand.sql()} {word} ({self.select.sql()}))"


@dataclass
class Like(Expr):
    """``expr [NOT] LIKE pattern [ESCAPE ch]``."""

    operand: Expr
    pattern: Expr
    escape: Expr | None = None
    negated: bool = False

    def sql(self) -> str:
        word = "NOT LIKE" if self.negated else "LIKE"
        esc = f" ESCAPE {self.escape.sql()}" if self.escape else ""
        return f"({self.operand.sql()} {word} {self.pattern.sql()}{esc})"


@dataclass
class Exists(Expr):
    """``[NOT] EXISTS (SELECT ...)``."""

    select: "Select"
    negated: bool = False

    def sql(self) -> str:
        word = "NOT EXISTS" if self.negated else "EXISTS"
        return f"{word} ({self.select.sql()})"


@dataclass
class FuncCall(Expr):
    """Function call — scalar (``upper(x)``) or aggregate (``sum(x)``,
    ``count(DISTINCT x)``, ``count(*)``)."""

    name: str
    args: list[Expr] = field(default_factory=list)
    distinct: bool = False
    star: bool = False

    def sql(self) -> str:
        if self.star:
            return f"{self.name}(*)"
        prefix = "DISTINCT " if self.distinct else ""
        return f"{self.name}({prefix}{', '.join(a.sql() for a in self.args)})"


@dataclass
class CaseExpr(Expr):
    """``CASE [operand] WHEN ... THEN ... [ELSE ...] END``."""

    operand: Expr | None
    whens: list[tuple[Expr, Expr]]
    else_: Expr | None = None

    def sql(self) -> str:
        parts = ["CASE"]
        if self.operand is not None:
            parts.append(self.operand.sql())
        for cond, result in self.whens:
            parts.append(f"WHEN {cond.sql()} THEN {result.sql()}")
        if self.else_ is not None:
            parts.append(f"ELSE {self.else_.sql()}")
        parts.append("END")
        return " ".join(parts)


@dataclass
class Cast(Expr):
    """``CAST(expr AS type)``."""

    operand: Expr
    type: "TypeSpec"

    def sql(self) -> str:
        return f"CAST({self.operand.sql()} AS {self.type.sql()})"


@dataclass
class ScalarSelect(Expr):
    """A subquery used as a scalar value."""

    select: "Select"

    def sql(self) -> str:
        return f"({self.select.sql()})"


@dataclass
class IntervalLiteral(Expr):
    """``INTERVAL '3' MONTH`` — used in TPC-H date arithmetic."""

    amount: int
    unit: str  # DAY | MONTH | YEAR

    def sql(self) -> str:
        return f"INTERVAL '{self.amount}' {self.unit}"


@dataclass
class ExtractExpr(Expr):
    """``EXTRACT(YEAR FROM expr)``."""

    part: str
    operand: Expr

    def sql(self) -> str:
        return f"EXTRACT({self.part} FROM {self.operand.sql()})"


@dataclass
class SubstringExpr(Expr):
    """``SUBSTRING(expr FROM start [FOR length])`` (also accepts the
    comma-call form at parse time)."""

    operand: Expr
    start: Expr
    length: Expr | None = None

    def sql(self) -> str:
        tail = f" FOR {self.length.sql()}" if self.length else ""
        return f"SUBSTRING({self.operand.sql()} FROM {self.start.sql()}{tail})"


# --------------------------------------------------------------------------
# SELECT machinery
# --------------------------------------------------------------------------


@dataclass
class SelectItem(Node):
    """One projection in a select list."""

    expr: Expr
    alias: str | None = None

    def sql(self) -> str:
        return f"{self.expr.sql()} AS {self.alias}" if self.alias else self.expr.sql()


@dataclass
class OrderItem(Node):
    """One ORDER BY key."""

    expr: Expr
    desc: bool = False

    def sql(self) -> str:
        return f"{self.expr.sql()} DESC" if self.desc else self.expr.sql()


class TableRef(Node):
    """Base class for anything that can appear in FROM."""


@dataclass
class TableName(TableRef):
    """A named table, optionally aliased."""

    name: str
    alias: str | None = None

    def sql(self) -> str:
        return f"{self.name} {self.alias}" if self.alias else self.name

    @property
    def binding(self) -> str:
        """Name this source is referred to by in the query."""
        return self.alias or self.name


@dataclass
class SubquerySource(TableRef):
    """A derived table: ``(SELECT ...) alias``."""

    select: "Select"
    alias: str

    def sql(self) -> str:
        return f"({self.select.sql()}) {self.alias}"

    @property
    def binding(self) -> str:
        return self.alias


@dataclass
class Join(TableRef):
    """A join between two table refs.  ``kind`` is INNER, LEFT, or CROSS."""

    left: TableRef
    right: TableRef
    kind: str = "INNER"
    on: Expr | None = None

    def sql(self) -> str:
        if self.kind == "CROSS":
            return f"{self.left.sql()} CROSS JOIN {self.right.sql()}"
        on = f" ON {self.on.sql()}" if self.on is not None else ""
        return f"{self.left.sql()} {self.kind} JOIN {self.right.sql()}{on}"


@dataclass
class Select(Statement):
    """A SELECT statement (also usable as a subquery expression)."""

    items: list[SelectItem]
    from_: TableRef | None = None
    where: Expr | None = None
    group_by: list[Expr] = field(default_factory=list)
    having: Expr | None = None
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    distinct: bool = False
    into: str | None = None  # SELECT ... INTO t (SQL Server materialize form)
    #: point-in-time query: ``SELECT ... AS OF <ts>`` runs against the
    #: committed state at timestamp ``ts`` (a literal, never a placeholder)
    as_of: Expr | None = None

    def sql(self) -> str:
        parts = ["SELECT"]
        if self.distinct:
            parts.append("DISTINCT")
        parts.append(", ".join(item.sql() for item in self.items))
        if self.into:
            parts.append(f"INTO {self.into}")
        if self.from_ is not None:
            parts.append(f"FROM {self.from_.sql()}")
        if self.where is not None:
            parts.append(f"WHERE {self.where.sql()}")
        if self.group_by:
            parts.append("GROUP BY " + ", ".join(e.sql() for e in self.group_by))
        if self.having is not None:
            parts.append(f"HAVING {self.having.sql()}")
        if self.order_by:
            parts.append("ORDER BY " + ", ".join(o.sql() for o in self.order_by))
        if self.limit is not None:
            parts.append(f"LIMIT {self.limit}")
        if self.offset is not None:
            parts.append(f"OFFSET {self.offset}")
        if self.as_of is not None:
            parts.append(f"AS OF {self.as_of.sql()}")
        return " ".join(parts)


@dataclass
class UnionSelect(Statement):
    """``SELECT ... UNION [ALL] SELECT ... [ORDER BY ...] [LIMIT ...]``.

    ``all_flags[i]`` tells whether the UNION joining ``parts[i]`` and
    ``parts[i+1]`` was UNION ALL.  Trailing ORDER BY / LIMIT apply to the
    combined result and may reference output columns by name or position.
    """

    parts: list[Select]
    all_flags: list[bool]
    order_by: list[OrderItem] = field(default_factory=list)
    limit: int | None = None
    offset: int | None = None
    #: ``SELECT ... INTO t FROM ... UNION ...``: the table the *combined*
    #: result is stored in (written after the first part's select list)
    into: str | None = None
    #: point-in-time query over the whole union (see :class:`Select`)
    as_of: Expr | None = None

    def sql(self) -> str:
        first = self.parts[0]
        chunks = [(replace(first, into=self.into) if self.into else first).sql()]
        for flag, part in zip(self.all_flags, self.parts[1:]):
            chunks.append("UNION ALL" if flag else "UNION")
            chunks.append(part.sql())
        text = " ".join(chunks)
        if self.order_by:
            text += " ORDER BY " + ", ".join(o.sql() for o in self.order_by)
        if self.limit is not None:
            text += f" LIMIT {self.limit}"
        if self.offset is not None:
            text += f" OFFSET {self.offset}"
        if self.as_of is not None:
            text += f" AS OF {self.as_of.sql()}"
        return text


# --------------------------------------------------------------------------
# DML
# --------------------------------------------------------------------------


@dataclass
class Insert(Statement):
    """``INSERT INTO t [(cols)] VALUES (...), ...`` or ``INSERT INTO t
    [(cols)] SELECT ...``."""

    table: str
    columns: list[str] | None = None
    rows: list[list[Expr]] | None = None
    select: Select | None = None

    def sql(self) -> str:
        cols = (
            f" ({', '.join(quote_ident(c) for c in self.columns)})" if self.columns else ""
        )
        if self.select is not None:
            return f"INSERT INTO {self.table}{cols} {self.select.sql()}"
        rows = ", ".join("(" + ", ".join(v.sql() for v in row) + ")" for row in self.rows or [])
        return f"INSERT INTO {self.table}{cols} VALUES {rows}"


@dataclass
class Update(Statement):
    """``UPDATE t SET c = e [, ...] [WHERE ...]``."""

    table: str
    assignments: list[tuple[str, Expr]]
    where: Expr | None = None

    def sql(self) -> str:
        sets = ", ".join(f"{col} = {expr.sql()}" for col, expr in self.assignments)
        where = f" WHERE {self.where.sql()}" if self.where is not None else ""
        return f"UPDATE {self.table} SET {sets}{where}"


@dataclass
class Delete(Statement):
    """``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Expr | None = None

    def sql(self) -> str:
        where = f" WHERE {self.where.sql()}" if self.where is not None else ""
        return f"DELETE FROM {self.table}{where}"


# --------------------------------------------------------------------------
# DDL
# --------------------------------------------------------------------------


@dataclass
class TypeSpec(Node):
    """A column type: name plus optional length / precision / scale."""

    name: str  # canonical upper-case type name (INT, VARCHAR, DECIMAL, ...)
    length: int | None = None
    precision: int | None = None
    scale: int | None = None

    def sql(self) -> str:
        if self.name in ("CHAR", "VARCHAR") and self.length is not None:
            return f"{self.name}({self.length})"
        if self.name in ("DECIMAL", "NUMERIC") and self.precision is not None:
            if self.scale is not None:
                return f"{self.name}({self.precision}, {self.scale})"
            return f"{self.name}({self.precision})"
        return self.name


@dataclass
class ColumnDef(Node):
    """One column in CREATE TABLE."""

    name: str
    type: TypeSpec
    not_null: bool = False
    primary_key: bool = False
    default: Expr | None = None

    def sql(self) -> str:
        parts = [quote_ident(self.name), self.type.sql()]
        if self.not_null:
            parts.append("NOT NULL")
        if self.primary_key:
            parts.append("PRIMARY KEY")
        if self.default is not None:
            parts.append(f"DEFAULT {self.default.sql()}")
        return " ".join(parts)


@dataclass
class CreateTable(Statement):
    """``CREATE [TEMPORARY] TABLE [IF NOT EXISTS] name (...)``.

    A name starting with ``#`` also marks the table temporary (SQL Server
    convention the paper relies on).
    """

    name: str
    columns: list[ColumnDef]
    primary_key: list[str] = field(default_factory=list)
    temporary: bool = False
    if_not_exists: bool = False

    def sql(self) -> str:
        head = "CREATE TEMPORARY TABLE" if self.temporary and not self.name.startswith("#") else "CREATE TABLE"
        exists = " IF NOT EXISTS" if self.if_not_exists else ""
        body = ", ".join(c.sql() for c in self.columns)
        column_pks = {c.name for c in self.columns if c.primary_key}
        if self.primary_key and set(self.primary_key) != column_pks:
            body += f", PRIMARY KEY ({', '.join(quote_ident(k) for k in self.primary_key)})"
        return f"{head}{exists} {self.name} ({body})"


@dataclass
class DropTable(Statement):
    """``DROP TABLE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False

    def sql(self) -> str:
        exists = "IF EXISTS " if self.if_exists else ""
        return f"DROP TABLE {exists}{self.name}"


@dataclass
class CreateProcedure(Statement):
    """``CREATE PROCEDURE name (@p [TYPE], ...) AS stmt [; stmt ...]``.

    A ``#name`` is a temporary (session-scoped) procedure.  An argument is
    coerced to its parameter's declared type; a parameter declared without
    one takes the argument as it is.  A parameter may stand where the body
    names a table (``INTO @t``, ``FROM @t``).
    """

    name: str
    params: list[tuple[str, TypeSpec | None]] = field(default_factory=list)
    body: list[Statement] = field(default_factory=list)

    @property
    def temporary(self) -> bool:
        return self.name.startswith("#")

    def sql(self) -> str:
        params = ""
        if self.params:
            params = " (" + ", ".join(f"@{n} {t.sql()}" if t else f"@{n}" for n, t in self.params) + ")"
        body = "; ".join(s.sql() for s in self.body)
        # Always bracket the body: an unbracketed AS-body swallows every
        # following statement when the CREATE is embedded in a batch.
        return f"CREATE PROCEDURE {self.name}{params} AS BEGIN {body} END"


@dataclass
class DropProcedure(Statement):
    """``DROP PROCEDURE [IF EXISTS] name``."""

    name: str
    if_exists: bool = False

    def sql(self) -> str:
        exists = "IF EXISTS " if self.if_exists else ""
        return f"DROP PROCEDURE {exists}{self.name}"


@dataclass
class ExecProcedure(Statement):
    """``EXEC name arg, arg, ...``."""

    name: str
    args: list[Expr] = field(default_factory=list)

    def sql(self) -> str:
        if not self.args:
            return f"EXEC {self.name}"
        return f"EXEC {self.name} {', '.join(a.sql() for a in self.args)}"


# --------------------------------------------------------------------------
# Transactions, options, admin
# --------------------------------------------------------------------------


@dataclass
class BeginTransaction(Statement):
    def sql(self) -> str:
        return "BEGIN TRANSACTION"


@dataclass
class Commit(Statement):
    def sql(self) -> str:
        return "COMMIT"


@dataclass
class Rollback(Statement):
    def sql(self) -> str:
        return "ROLLBACK"


@dataclass
class SetOption(Statement):
    """``SET name value`` / ``SET name = value`` — session options."""

    name: str
    value: object

    def sql(self) -> str:
        return f"SET {self.name} {quote_literal(self.value)}"


@dataclass
class Checkpoint(Statement):
    """``CHECKPOINT`` — force the engine to write a WAL checkpoint."""

    def sql(self) -> str:
        return "CHECKPOINT"


@dataclass
class CreateView(Statement):
    """``CREATE VIEW name [(col, ...)] AS SELECT ...``.

    Views are persistent catalog objects: the engine stores the definition
    and expands references to the view as derived tables at plan time.
    """

    name: str
    select: Select
    columns: list[str] = field(default_factory=list)

    def sql(self) -> str:
        cols = ""
        if self.columns:
            cols = " (" + ", ".join(quote_ident(c) for c in self.columns) + ")"
        return f"CREATE VIEW {self.name}{cols} AS {self.select.sql()}"


@dataclass
class DropView(Statement):
    """``DROP VIEW [IF EXISTS] name``."""

    name: str
    if_exists: bool = False

    def sql(self) -> str:
        exists = "IF EXISTS " if self.if_exists else ""
        return f"DROP VIEW {exists}{self.name}"


@dataclass
class CreateIndex(Statement):
    """``CREATE INDEX name ON table (column)`` — a single-column hash index
    (equality lookups only; the planner uses it for constant-equality
    selections)."""

    name: str
    table: str
    column: str

    def sql(self) -> str:
        return f"CREATE INDEX {self.name} ON {self.table} ({quote_ident(self.column)})"


@dataclass
class DropIndex(Statement):
    """``DROP INDEX [IF EXISTS] name``."""

    name: str
    if_exists: bool = False

    def sql(self) -> str:
        exists = "IF EXISTS " if self.if_exists else ""
        return f"DROP INDEX {exists}{self.name}"


@dataclass
class Explain(Statement):
    """``EXPLAIN SELECT ...`` — return the executor's plan as text rows."""

    select: Select

    def sql(self) -> str:
        return f"EXPLAIN {self.select.sql()}"


#: The field of each class that holds a *table* name (for ``ColumnRef`` and
#: ``Star`` the qualifier, which names a table when FROM gave it no alias).
#: Declared once: every reading that cares about table names — Phoenix's
#: temp-object redirection first of all — looks in the same places.
TABLE_NAME_FIELD: dict[type, str] = {
    TableName: "name",
    ColumnRef: "table",
    Star: "table",
    Select: "into",
    UnionSelect: "into",
    Insert: "table",
    Update: "table",
    Delete: "table",
    CreateTable: "name",
    DropTable: "name",
    CreateIndex: "table",
}

#: The field of each class that holds a *procedure* name.
PROCEDURE_NAME_FIELD: dict[type, str] = {
    CreateProcedure: "name",
    DropProcedure: "name",
    ExecProcedure: "name",
}
