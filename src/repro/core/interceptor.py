"""Request interception: classification and SQL rewriting.

Phoenix performs "a one-pass parse to determine request type" (§3).  We do
the honest version: parse to AST, classify, and rewrite by AST transform —
appending ``WHERE 0=1`` for the metadata probe, redirecting temp-object
names to their persistent stand-ins, naming a fill procedure's parameters.
No rewrite splices in a bound value: every statement Phoenix sends carries
the values of its own ``?`` beside it (:func:`placeholder_values`).

A template is rendered when it is parsed: its text, and a query's text with
the LIMIT cap of any fetch block, are strings from then on.  A session
renders again only a template that names one of its redirected temp objects.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import os
from typing import Callable, Iterable, NamedTuple

from repro.sql import ast, parse_script
from repro.sql.walk import transform, walk, with_false_where

__all__ = [
    "StatementClass",
    "Rendering",
    "Template",
    "classify",
    "statement_templates",
    "with_false_where",
    "redirect_names",
    "referenced_tables",
    "render",
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


class Rendering(NamedTuple):
    """A statement and the text it sends, rendered once."""

    stmt: ast.Statement
    #: ``stmt.sql()``
    text: str
    #: a QUERY's text either side of the number of its LIMIT (see
    #: :meth:`capped`); None for any other statement
    cap: tuple[str, str] | None

    def capped(self, block: int) -> str:
        """A QUERY's text asking for at most one row more than a fetch
        ``block``: a larger or missing LIMIT becomes ``block + 1``."""
        limit = self.stmt.limit
        if limit is not None and limit <= block + 1:
            return self.text
        head, tail = self.cap
        return f"{head}{block + 1}{tail}"


def render(stmt: ast.Statement, kind: StatementClass) -> Rendering:
    """``stmt``'s texts: a template's, when it is parsed, or a session's
    rewrite of a template that names a redirected temp object."""
    cap = None
    if kind is StatementClass.QUERY:
        # the renderer's texts for two LIMITs differ in its number alone
        zero = dataclasses.replace(stmt, limit=0).sql()
        head = os.path.commonprefix((zero, dataclasses.replace(stmt, limit=1).sql()))
        cap = (head, zero[len(head) + 1 :])
    return Rendering(stmt, stmt.sql(), cap)


class Template(NamedTuple):
    """One statement of an application text."""

    stmt: ast.Statement
    kind: StatementClass
    #: its ``?`` among the values bound to the whole text — the parser
    #: numbers them left to right across the script, and ``stmt``'s own are
    #: renumbered from 0, so ``bound[values]`` is what its text binds
    values: slice
    #: what it sends on a session that redirects none of :attr:`tables` and
    #: :attr:`procedures`
    rendering: Rendering
    #: the table and procedure names it references (lower-cased)
    tables: frozenset[str]
    procedures: frozenset[str]


def statement_templates(sql: str) -> tuple[Template, ...]:
    """The statements of an application text, parsed, classified and
    rendered — once per text, process-wide: parsing is pure, so every
    connection shares the result, as the server's sessions share its parse
    cache.

    What comes back is shared and is never modified: everything that turns
    a template into the statement actually sent is copy-on-write —
    :func:`redirect_names` and :func:`name_placeholders` through
    :func:`repro.sql.walk.transform`, the rest through ``dataclasses.replace``.
    """
    if len(sql) > TEMPLATE_MAX_CHARS:
        return _parse_templates(sql)
    return _templates(sql)


def _parse_templates(sql: str) -> tuple[Template, ...]:
    templates, first = [], 0
    for stmt in parse_script(sql):
        nodes = list(walk(stmt))
        count = sum(1 for node in nodes if node.__class__ is ast.Placeholder)
        if first and count:
            stmt = _replace_placeholders(stmt, lambda index: ast.Placeholder(index - first))
        kind = classify(stmt)
        templates.append(
            Template(
                stmt,
                kind,
                slice(first, first + count),
                render(stmt, kind),
                _referenced(nodes, ast.TABLE_NAME_FIELD),
                _referenced(nodes, ast.PROCEDURE_NAME_FIELD),
            )
        )
        first += count
    return tuple(templates)


#: one cache for clients on many threads: ``lru_cache`` locks its own
#: bookkeeping (a text parsed twice in a race is the same pure result)
_templates = functools.lru_cache(maxsize=TEMPLATE_CACHE_CAPACITY)(_parse_templates)


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


def referenced_tables(stmt: ast.Statement) -> frozenset[str]:
    """Every table name a statement references (lower-cased): what
    :func:`redirect_names` would look up."""
    return _referenced(walk(stmt), ast.TABLE_NAME_FIELD)


def _referenced(nodes: Iterable[ast.Node], name_field: dict[type, str]) -> frozenset[str]:
    """The names ``nodes`` hold in their ``name_field`` fields, lower-cased."""
    return frozenset(
        name.lower()
        for node in nodes
        if (field := name_field.get(node.__class__)) and (name := getattr(node, field))
    )


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
