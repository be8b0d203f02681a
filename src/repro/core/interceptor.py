"""Request interception: classification and SQL rewriting.

Phoenix performs "a one-pass parse to determine request type" (§3).  We do
the honest version: parse to AST, classify, and rewrite by AST transform —
appending ``WHERE 0=1`` for the metadata probe, redirecting temp-object
names to their persistent stand-ins, and assembling the transaction-wrapped
DML batches.
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from typing import Callable

from repro.engine.plancache import LRUCache
from repro.errors import ProgrammingError
from repro.obs.tracer import get_tracer
from repro.sql import ast, parse_script
from repro.sql.walk import transform, walk, with_false_where

__all__ = [
    "StatementClass",
    "classify",
    "statement_templates",
    "with_false_where",
    "redirect_names",
    "referenced_tables",
    "inline_placeholders",
    "name_placeholders",
    "build_dml_batch",
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

    What comes back is shared and is never modified: everything that turns
    a template into the statement actually sent is copy-on-write —
    :func:`inline_placeholders` and :func:`redirect_names` through
    :func:`repro.sql.walk.transform`, the rest through ``dataclasses.replace``.
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


def redirect_names(
    stmt: ast.Statement,
    table_map: dict[str, str],
    proc_map: dict[str, str] | None = None,
) -> ast.Statement:
    """``stmt`` with its temp-object references replaced by their persistent
    stand-ins, wherever :data:`~repro.sql.ast.TABLE_NAME_FIELD` and
    :data:`~repro.sql.ast.PROCEDURE_NAME_FIELD` say a name is held.

    Never touches ``stmt`` (it may be a cached template): the result shares
    every subtree that names nothing redirected, and with nothing to
    redirect it *is* ``stmt``.  Lookup is case-insensitive on the original
    name.
    """
    if not table_map and not proc_map:
        return stmt
    name_maps = ((ast.TABLE_NAME_FIELD, table_map), (ast.PROCEDURE_NAME_FIELD, proc_map or {}))

    def rename(node: ast.Node) -> ast.Node:
        node = transform(node, rename)  # what is under it first
        for name_field, names in name_maps:
            field = name_field.get(node.__class__)
            if field is not None:
                old = getattr(node, field)
                new = names.get(old.lower(), old) if old else old
                return node if new == old else dataclasses.replace(node, **{field: new})
        return node

    return rename(stmt)


def referenced_tables(stmt: ast.Statement) -> set[str]:
    """Every table name a statement references (lower-cased): what
    :func:`redirect_names` would look up.  Tests check redirection with it."""
    return {
        name.lower()
        for node in walk(stmt)
        if (field := ast.TABLE_NAME_FIELD.get(node.__class__)) and (name := getattr(node, field))
    }


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


#: the statements whose ``?`` Phoenix binds (any other kind passes through)
_BINDABLE = (ast.Select, ast.UnionSelect, ast.Insert, ast.Update, ast.Delete, ast.ExecProcedure)


def _bind(stmt: ast.Statement, bound: Callable[[int], ast.Expr]) -> ast.Statement:
    """``stmt`` with each ``?`` replaced by ``bound(its index)``.

    A pure rewrite: ``stmt`` (usually a cached template) is never modified.
    The result is a new tree along the paths that lead to a placeholder
    and shares every other subtree with ``stmt``; with no placeholder in
    it, it *is* ``stmt``.  An ``AS OF`` moment is not bound — it must be
    spelled out in the statement (see the executor's ``_as_of_timestamp``).
    """

    def bind(node: ast.Node) -> ast.Node:
        if node.__class__ is ast.Placeholder:
            return bound(node.index)
        moment = node.as_of if isinstance(node, (ast.Select, ast.UnionSelect)) else None
        if moment is None:
            return transform(node, bind)
        return transform(node, lambda child: child if child is moment else bind(child))

    return bind(stmt) if isinstance(stmt, _BINDABLE) else stmt


def inline_placeholders(stmt: ast.Statement, values: list) -> ast.Statement:
    """``stmt`` with its ``?`` placeholders replaced by their bound values
    as literals.

    Phoenix rewrites and re-ships SQL text (wrapped DML batches, a key
    cursor's block fetches), so there the parameters must be inlined before
    rewriting — middleware doing statement rewriting cannot keep out-of-band
    bindings."""

    def literal(index: int) -> ast.Literal:
        if index >= len(values):
            raise ProgrammingError(
                f"statement uses placeholder ?{index + 1} but only "
                f"{len(values)} values were bound"
            )
        return ast.Literal(values[index])

    return _bind(stmt, literal)


def name_placeholders(stmt: ast.Statement) -> tuple[ast.Statement, int]:
    """``stmt`` with each ``?`` replaced by the parameter ``@p<index>`` —
    the body of its fill procedure — and how many values it binds."""
    indexes = [node.index for node in walk(stmt) if node.__class__ is ast.Placeholder]
    return _bind(stmt, lambda index: ast.Param(f"p{index}")), max(indexes, default=-1) + 1
