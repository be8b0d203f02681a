"""Request interception: classification and SQL rewriting.

Phoenix performs "a one-pass parse to determine request type" (§3).  We do
the honest version: parse to AST, classify, and rewrite by AST transform —
appending ``WHERE 0=1`` for the metadata probe, redirecting temp-object
names to their persistent stand-ins, naming a fill procedure's parameters.
No rewrite splices in a bound value: every statement Phoenix sends carries
the values of its own ``?`` beside it (:func:`placeholder_values`).
"""

from __future__ import annotations

import dataclasses
import enum
import threading
from typing import Callable, NamedTuple

from repro.engine.plancache import LRUCache
from repro.sql import ast, parse_script
from repro.sql.walk import transform, walk, with_false_where

__all__ = [
    "StatementClass",
    "Template",
    "classify",
    "statement_templates",
    "with_false_where",
    "redirect_names",
    "referenced_tables",
    "placeholder_values",
    "name_placeholders",
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


class Template(NamedTuple):
    """One statement of an application text."""

    stmt: ast.Statement
    kind: StatementClass
    #: its ``?`` among the values bound to the whole text — the parser
    #: numbers them left to right across the script, and ``stmt``'s own are
    #: renumbered from 0, so ``bound[values]`` is what its text binds
    values: slice


def statement_templates(sql: str) -> tuple[Template, ...]:
    """The statements of an application text, parsed and classified — once
    per text, process-wide: parsing is pure, so every connection shares the
    result, as the server's sessions share its ``ParseCache``.

    What comes back is shared and is never modified: everything that turns
    a template into the statement actually sent is copy-on-write —
    :func:`redirect_names` and :func:`name_placeholders` through
    :func:`repro.sql.walk.transform`, the rest through ``dataclasses.replace``.
    """
    with _templates_lock:
        templates = _templates.get(sql)
    if templates is None:
        templates, first = [], 0
        for stmt in parse_script(sql):
            count = sum(1 for node in walk(stmt) if node.__class__ is ast.Placeholder)
            if first and count:
                stmt = _replace_placeholders(stmt, lambda index: ast.Placeholder(index - first))
            templates.append(Template(stmt, classify(stmt), slice(first, first + count)))
            first += count
        templates = tuple(templates)
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


# ------------------------------------------------------------------ placeholders


def _replace_placeholders(stmt: ast.Statement, new: Callable[[int], ast.Expr]) -> ast.Statement:
    """``stmt`` with each ``?`` replaced by ``new(its index)``: a new tree
    along the paths that lead to a placeholder, sharing every other subtree
    with ``stmt`` (usually a cached template, never modified)."""

    def replace(node: ast.Node) -> ast.Node:
        if node.__class__ is ast.Placeholder:
            return new(node.index)
        return transform(node, replace)

    return replace(stmt)


def placeholder_values(stmt: ast.Node, values: list) -> list:
    """What a request carrying ``stmt.sql()`` binds: ``values[i]`` for each
    ``?i`` in ``stmt``, in text order — the server numbers ``?`` left to
    right, and a rewrite numbers the ``?`` it adds after the template's."""
    indexes = sorted(node.index for node in walk(stmt) if node.__class__ is ast.Placeholder)
    return [values[index] for index in indexes]


def name_placeholders(stmt: ast.Statement) -> tuple[ast.Statement, int]:
    """``stmt`` with each ``?`` replaced by the parameter ``@p<index>`` —
    the body of its fill procedure — and how many values it binds."""
    n_values = max((n.index + 1 for n in walk(stmt) if n.__class__ is ast.Placeholder), default=0)
    return _replace_placeholders(stmt, lambda index: ast.Param(f"p{index}")), n_values
