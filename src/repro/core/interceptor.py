"""Request interception: classification and SQL rewriting.

Phoenix performs "a one-pass parse to determine request type" (§3).  We do
the honest version: parse to AST, classify, and rewrite by AST transform —
appending ``WHERE 0=1`` for the metadata probe, redirecting temp-object
names to their persistent stand-ins, and assembling the transaction-wrapped
DML batches.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
import threading

from repro.engine.plancache import LRUCache
from repro.errors import ProgrammingError
from repro.obs.tracer import get_tracer
from repro.sql import ast, parse_script

__all__ = [
    "StatementClass",
    "classify",
    "statement_templates",
    "with_false_where",
    "redirect_names",
    "referenced_tables",
    "inline_placeholders",
    "build_dml_batch",
    "build_fill_batch",
]


class StatementClass(enum.Enum):
    QUERY = "query"  # SELECT without INTO
    DML = "dml"  # INSERT / UPDATE / DELETE / SELECT INTO
    TXN_BEGIN = "txn_begin"
    TXN_COMMIT = "txn_commit"
    TXN_ROLLBACK = "txn_rollback"
    SET_OPTION = "set_option"
    CREATE_TEMP_TABLE = "create_temp_table"
    DROP_TEMP_TABLE = "drop_temp_table"
    CREATE_TEMP_PROC = "create_temp_proc"
    DROP_TEMP_PROC = "drop_temp_proc"
    DDL = "ddl"  # persistent CREATE/DROP TABLE/PROCEDURE
    EXEC = "exec"
    OTHER = "other"  # CHECKPOINT etc. — passed through untouched


def classify(stmt: ast.Statement) -> StatementClass:
    """Bucket a parsed statement for Phoenix's dispatch."""
    if isinstance(stmt, (ast.Select, ast.UnionSelect)):
        return StatementClass.DML if stmt.into else StatementClass.QUERY
    if isinstance(stmt, (ast.Insert, ast.Update, ast.Delete)):
        return StatementClass.DML
    if isinstance(stmt, ast.BeginTransaction):
        return StatementClass.TXN_BEGIN
    if isinstance(stmt, ast.Commit):
        return StatementClass.TXN_COMMIT
    if isinstance(stmt, ast.Rollback):
        return StatementClass.TXN_ROLLBACK
    if isinstance(stmt, ast.SetOption):
        return StatementClass.SET_OPTION
    if isinstance(stmt, ast.CreateTable):
        if stmt.temporary or stmt.name.startswith("#"):
            return StatementClass.CREATE_TEMP_TABLE
        return StatementClass.DDL
    if isinstance(stmt, ast.DropTable):
        if stmt.name.startswith("#"):
            return StatementClass.DROP_TEMP_TABLE
        return StatementClass.DDL
    if isinstance(stmt, ast.CreateProcedure):
        if stmt.temporary:
            return StatementClass.CREATE_TEMP_PROC
        return StatementClass.DDL
    if isinstance(stmt, ast.DropProcedure):
        if stmt.name.startswith("#"):
            return StatementClass.DROP_TEMP_PROC
        return StatementClass.DDL
    if isinstance(stmt, (ast.CreateView, ast.DropView, ast.CreateIndex, ast.DropIndex)):
        return StatementClass.DDL
    if isinstance(stmt, ast.ExecProcedure):
        return StatementClass.EXEC
    return StatementClass.OTHER


# --------------------------------------------------------------------- templates

#: distinct application texts kept parsed
TEMPLATE_CACHE_CAPACITY = 128
#: a longer text is a load script, not a statement an application repeats
TEMPLATE_MAX_CHARS = 8192

_templates = LRUCache(TEMPLATE_CACHE_CAPACITY)
_templates_lock = threading.Lock()  # one cache, clients on many threads


def statement_templates(sql: str) -> tuple[tuple[ast.Statement, StatementClass], ...]:
    """The statements of an application text, parsed and classified — once
    per text, process-wide: parsing is pure, so every connection shares the
    result, as the server's sessions share its ``ParseCache``.

    What comes back is shared and must never be modified.  Everything that
    turns a template into the statement actually sent makes a new tree —
    :func:`inline_placeholders`, :func:`redirect_names`, ``dataclasses.replace``.
    """
    with _templates_lock:
        templates = _templates.get(sql)
    if templates is None:
        templates = tuple((stmt, classify(stmt)) for stmt in parse_script(sql))
        if len(sql) <= TEMPLATE_MAX_CHARS:
            with _templates_lock:
                _templates.put(sql, templates)
    return templates


# --------------------------------------------------------------------- rewriting


def with_false_where(select: "ast.Select | ast.UnionSelect") -> "ast.Select | ast.UnionSelect":
    """The metadata probe, for the results whose table the client itself
    must describe (key cursors).  ``WHERE <orig> AND 0=1``
    guarantees compile-only execution — metadata comes back, no data does.
    For a UNION the probe is applied to every part."""
    if isinstance(select, ast.UnionSelect):
        return ast.UnionSelect(
            parts=[with_false_where(part) for part in select.parts],
            all_flags=list(select.all_flags),
            # the probe must see the same moment: an AS OF query's tables
            # may exist only in the snapshot (e.g. after a live DROP)
            as_of=getattr(select, "as_of", None),
        )
    false = ast.Binary("=", ast.Literal(0), ast.Literal(1))
    where = false if select.where is None else ast.Binary("AND", select.where, false)
    return ast.Select(
        items=select.items,
        from_=select.from_,
        where=where,
        group_by=list(select.group_by),
        having=select.having,
        order_by=[],
        distinct=select.distinct,
        as_of=getattr(select, "as_of", None),
    )


def redirect_names(
    stmt: ast.Statement,
    table_map: dict[str, str],
    proc_map: dict[str, str] | None = None,
) -> ast.Statement:
    """Rewrite temp-object references to their persistent stand-ins.

    Never touches ``stmt`` (it may be a cached template): with nothing to
    redirect it is returned as it came, otherwise a copy is rewritten and
    returned.  Lookup is case-insensitive on the original name.
    """
    proc_map = proc_map or {}
    if not table_map and not proc_map:
        return stmt
    stmt = copy.deepcopy(stmt)
    _map_names(
        stmt,
        lambda name: table_map.get(name.lower(), name),
        lambda name: proc_map.get(name.lower(), name),
    )
    return stmt


def referenced_tables(stmt: ast.Statement) -> set[str]:
    """Every table name a statement references (lower-cased).  Used by tests
    and by Phoenix's sanity checks on redirection completeness."""
    names: set[str] = set()

    def record(name: str) -> str:
        names.add(name.lower())
        return name

    _map_names(stmt, record, lambda name: name)  # identity maps: nothing changes
    return names


def _map_names(stmt: ast.Statement, map_table, map_proc) -> None:
    """Replace, in place, every table name in ``stmt`` by ``map_table(name)``
    and every procedure name by ``map_proc(name)``."""

    def walk_expr(expr: ast.Expr | None) -> None:
        if expr is None:
            return
        if isinstance(expr, ast.ColumnRef):
            # a qualifier naming the temp table directly (no alias in FROM)
            # must follow the rename, e.g. ``#w.x`` → ``phx_tmp_w.x``
            if expr.table is not None:
                expr.table = map_table(expr.table)
        elif isinstance(expr, ast.Binary):
            walk_expr(expr.left)
            walk_expr(expr.right)
        elif isinstance(expr, ast.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.IsNull):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.Between):
            walk_expr(expr.operand)
            walk_expr(expr.low)
            walk_expr(expr.high)
        elif isinstance(expr, ast.InList):
            walk_expr(expr.operand)
            for item in expr.items:
                walk_expr(item)
        elif isinstance(expr, ast.InSelect):
            walk_expr(expr.operand)
            walk_selectable(expr.select)
        elif isinstance(expr, ast.Like):
            walk_expr(expr.operand)
            walk_expr(expr.pattern)
        elif isinstance(expr, ast.Exists):
            walk_selectable(expr.select)
        elif isinstance(expr, ast.FuncCall):
            for arg in expr.args:
                walk_expr(arg)
        elif isinstance(expr, ast.CaseExpr):
            walk_expr(expr.operand)
            for cond, result in expr.whens:
                walk_expr(cond)
                walk_expr(result)
            walk_expr(expr.else_)
        elif isinstance(expr, ast.Cast):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.ScalarSelect):
            walk_selectable(expr.select)
        elif isinstance(expr, ast.ExtractExpr):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.SubstringExpr):
            walk_expr(expr.operand)
            walk_expr(expr.start)
            walk_expr(expr.length)

    def walk_selectable(node) -> None:
        if isinstance(node, ast.UnionSelect):
            if node.into:
                node.into = map_table(node.into)
            for part in node.parts:
                walk_select(part)
        else:
            walk_select(node)

    def walk_tableref(ref: ast.TableRef | None) -> None:
        if ref is None:
            return
        if isinstance(ref, ast.TableName):
            ref.name = map_table(ref.name)
        elif isinstance(ref, ast.SubquerySource):
            walk_selectable(ref.select)
        elif isinstance(ref, ast.Join):
            walk_tableref(ref.left)
            walk_tableref(ref.right)
            walk_expr(ref.on)

    def walk_select(select: ast.Select) -> None:
        for item in select.items:
            if not isinstance(item.expr, ast.Star):
                walk_expr(item.expr)
        if select.into:
            select.into = map_table(select.into)
        walk_tableref(select.from_)
        walk_expr(select.where)
        for expr in select.group_by:
            walk_expr(expr)
        walk_expr(select.having)
        for order in select.order_by:
            walk_expr(order.expr)

    def walk_statement(node: ast.Statement) -> None:
        if isinstance(node, (ast.Select, ast.UnionSelect)):
            walk_selectable(node)
        elif isinstance(node, ast.Insert):
            node.table = map_table(node.table)
            if node.select is not None:
                walk_selectable(node.select)
            for row in node.rows or []:
                for expr in row:
                    walk_expr(expr)
        elif isinstance(node, ast.Update):
            node.table = map_table(node.table)
            for _, expr in node.assignments:
                walk_expr(expr)
            walk_expr(node.where)
        elif isinstance(node, ast.Delete):
            node.table = map_table(node.table)
            walk_expr(node.where)
        elif isinstance(node, ast.CreateTable):
            node.name = map_table(node.name)
        elif isinstance(node, ast.DropTable):
            node.name = map_table(node.name)
        elif isinstance(node, ast.CreateProcedure):
            node.name = map_proc(node.name)
            for body_stmt in node.body:
                walk_statement(body_stmt)
        elif isinstance(node, ast.DropProcedure):
            node.name = map_proc(node.name)
        elif isinstance(node, ast.ExecProcedure):
            node.name = map_proc(node.name)
            for arg in node.args:
                walk_expr(arg)

    walk_statement(stmt)


# ------------------------------------------------------------------ batch builders


def build_dml_batch(dml_sql: str, status_table: str, seq: int) -> str:
    """The paper's DML wrapper: one transaction containing the statement and
    a status-table insert of its outcome (rows affected), shipped as a
    single round trip::

        BEGIN; <dml>; INSERT INTO <status> VALUES (<seq>, rowcount()); COMMIT
    """
    get_tracer().event("interceptor.wrap_dml", seq=seq)
    return (
        "BEGIN TRANSACTION; "
        f"{dml_sql}; "
        f"INSERT INTO {status_table} VALUES ({seq}, rowcount()); "
        "COMMIT"
    )


def build_fill_batch(proc_name: str, result_table: str, select_sql: str) -> str:
    """Phoenix Step 3: move the result into the persistent table entirely
    server-side, by creating and executing a stored procedure (the paper's
    design: "all data is moved locally at the server").

    Idempotent under retry: the procedure is dropped first if a previous
    attempt got far enough to create it.
    """
    get_tracer().event("interceptor.fill_batch", table=result_table)
    return (
        f"DROP PROCEDURE IF EXISTS {proc_name}; "
        f"CREATE PROCEDURE {proc_name} AS BEGIN "
        f"INSERT INTO {result_table} {select_sql} END; "
        f"EXEC {proc_name}"
    )


#: the statements whose ``?`` Phoenix binds (any other kind passes through)
_BINDABLE = (ast.Select, ast.UnionSelect, ast.Insert, ast.Update, ast.Delete, ast.ExecProcedure)
#: field values that cannot hold a placeholder: names, numbers, flags, None
_ATOMS = frozenset({str, int, float, bool, type(None)})
#: node class -> the names of its fields
_FIELDS: dict[type, tuple[str, ...]] = {}


def inline_placeholders(stmt: ast.Statement, values: list) -> ast.Statement:
    """``stmt`` with its ``?`` placeholders replaced by their bound values
    as literals.

    Phoenix rewrites and re-ships SQL text (fill procedures, wrapped DML
    batches), so parameters must be inlined before rewriting — middleware
    doing statement rewriting cannot keep out-of-band bindings.

    A pure bind: ``stmt`` (usually a cached template) is never modified.
    The result is a new tree along the paths that lead to a placeholder
    and shares every other subtree with ``stmt``; with no placeholder in
    it, it *is* ``stmt``.  An ``AS OF`` moment is not bound — it must be
    spelled out in the statement (see ``Executor``'s ``_as_of_literal``).
    """

    def bind(node):
        """``node`` (a Node, or a list or tuple of them) bound, or itself."""
        cls = node.__class__
        if cls is ast.Placeholder:
            if node.index >= len(values):
                raise ProgrammingError(
                    f"statement uses placeholder ?{node.index + 1} but only "
                    f"{len(values)} values were bound"
                )
            return ast.Literal(values[node.index])
        if cls is list or cls is tuple:
            bound = [child if child.__class__ in _ATOMS else bind(child) for child in node]
            if all(new is old for new, old in zip(bound, node)):
                return node
            return bound if cls is list else tuple(bound)
        if not isinstance(node, ast.Node):
            return node  # some other value inside a Literal
        names = _FIELDS.get(cls)
        if names is None:
            names = _FIELDS[cls] = tuple(
                f.name for f in dataclasses.fields(cls) if f.name != "as_of"
            )
        clone = None
        for name in names:
            old = getattr(node, name)
            if old.__class__ in _ATOMS:
                continue
            new = bind(old)
            if new is not old:
                if clone is None:
                    clone = cls.__new__(cls)
                    clone.__dict__.update(node.__dict__)
                setattr(clone, name, new)
        return node if clone is None else clone

    return bind(stmt) if isinstance(stmt, _BINDABLE) else stmt
