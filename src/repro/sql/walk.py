"""Reading a statement: the one traversal and the one rewrite of the tree.

Which values of a node are its children is computed from the dataclass
fields, so a node class added to :mod:`repro.sql.ast` tomorrow is walked and
rewritten without anyone remembering it.  Every reading of a statement's
*structure* — Phoenix binding ``?`` and redirecting temp names, the planner
collecting aggregates and column references — is a few lines over
:func:`children`, :func:`walk` and :func:`transform`; reading a node's
*meaning* (type inference, compilation, ``sql()``) stays per class.  Also
here, because the driver and the engine must agree on them: the ``WHERE
0=1`` metadata probe and the shape a query must have for a key cursor.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import sys
from typing import Callable, Iterator

from repro.sql import ast
from repro.sql.ast import Node

__all__ = [
    "children", "walk", "transform", "SUBQUERY_EXPRS", "aggregate_calls",
    "with_false_where", "key_cursor_source", "key_query",
]


@functools.cache
def _node_fields(cls: type) -> tuple[str, ...]:
    """The fields of a node class that can hold a node: those whose
    annotation names a :class:`Node` subclass (``Expr | None``,
    ``list[tuple[str, Expr]]``)."""
    namespace = vars(sys.modules[cls.__module__])

    def names_a_node(annotation: str) -> bool:
        named = (namespace.get(word) for word in re.findall(r"\w+", annotation))
        return any(isinstance(value, type) and issubclass(value, Node) for value in named)

    return tuple(f.name for f in dataclasses.fields(cls) if names_a_node(str(f.type)))


def transform(node: Node, fn: Callable[[Node], Node]) -> Node:
    """``node`` with each of its :func:`children` replaced by ``fn(child)``.

    Copy-on-write: ``node`` is never modified and comes back as itself when
    ``fn`` changed no child, so a rewrite that recurses (``fn`` calling
    ``transform`` on what it is given) builds new nodes only along the paths
    to a change and shares every other subtree.  ``fn`` decides where to stop.
    """
    clone = None
    for name in _node_fields(node.__class__):
        old = getattr(node, name)
        if old is None:
            continue
        new = fn(old) if isinstance(old, Node) else _transform_items(old, fn)
        if new is not old:
            if clone is None:
                clone = node.__class__.__new__(node.__class__)
                clone.__dict__.update(node.__dict__)
            setattr(clone, name, new)
    return node if clone is None else clone


def _transform_items(items, fn):
    """``fn`` over the nodes in a list or tuple (tuples nest in lists:
    ``CaseExpr.whens``, ``Update.assignments``); ``items`` itself if no node
    changed."""
    new = [
        fn(item) if isinstance(item, Node)
        else _transform_items(item, fn) if item.__class__ is list or item.__class__ is tuple
        else item
        for item in items
    ]
    if all(a is b for a, b in zip(new, items)):
        return items
    return new if items.__class__ is list else tuple(new)


def children(node: Node) -> list[Node]:
    """The nodes directly under ``node``, in field order."""
    found: list[Node] = []
    transform(node, lambda child: found.append(child) or child)
    return found


def walk(node: Node) -> Iterator[Node]:
    """``node`` and every node under it, parents first."""
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


# ------------------------------------------------------------- shared readings

#: the expressions that open a query level of their own
SUBQUERY_EXPRS = (ast.ScalarSelect, ast.InSelect, ast.Exists)


def aggregate_calls(expr: Node) -> Iterator[ast.FuncCall]:
    """The aggregate calls of this query level: the walk does not descend
    into a subquery (its aggregates are its own) and stops at an aggregate."""
    if isinstance(expr, ast.FuncCall) and expr.name.lower() in ast.AGGREGATE_NAMES:
        yield expr
    elif not isinstance(expr, SUBQUERY_EXPRS):
        for child in children(expr):
            yield from aggregate_calls(child)


def with_false_where(select: "ast.Select | ast.UnionSelect") -> "ast.Select | ast.UnionSelect":
    """The metadata probe: ``WHERE <orig> AND 0=1`` is compiled, never run —
    the columns come back, no row does.  For a UNION the probe is applied to
    every part.  ``AS OF`` stays: the probe must see the same moment (the
    query's tables may exist only in the snapshot, e.g. after a live DROP).
    """
    unordered = {"order_by": [], "limit": None, "offset": None, "into": None}
    if isinstance(select, ast.UnionSelect):
        parts = [with_false_where(part) for part in select.parts]
        return dataclasses.replace(select, parts=parts, **unordered)
    false = ast.Binary("=", ast.Literal(0), ast.Literal(1))
    where = false if select.where is None else ast.Binary("AND", select.where, false)
    return dataclasses.replace(select, where=where, **unordered)


def key_cursor_source(select: "ast.Select | ast.UnionSelect") -> ast.TableName | None:
    """The table a keyset or dynamic cursor over ``select`` would address
    rows in, or None when the query's *shape* rules a key cursor out: it must
    read one plain table, with no grouping, aggregate, DISTINCT, LIMIT, OFFSET,
    INTO or ``AS OF`` (a snapshot's rows cannot be re-fetched by key), and not
    be a UNION.  Whether the table has a usable key is the caller's lookup."""
    if (
        not isinstance(select, ast.Select)
        or not isinstance(select.from_, ast.TableName)
        or select.group_by
        or select.having is not None
        or select.distinct
        or select.limit is not None
        or select.offset is not None
        or select.into is not None
        or select.as_of is not None
        or any(True for item in select.items for _ in aggregate_calls(item.expr))
    ):
        return None
    return select.from_


def key_query(select: ast.Select, key_column: str) -> ast.Select:
    """The keys of the rows ``select`` returns, in its order (key order when
    it asks for none): what a key cursor captures at open."""
    key = ast.ColumnRef(key_column)
    order_by = select.order_by or [ast.OrderItem(key)]
    return ast.Select([ast.SelectItem(key)], select.from_, select.where, order_by=order_by)
