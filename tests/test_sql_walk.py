"""The one traversal (``repro.sql.walk``) and the rewrites written over it.

Completeness is checked against the type hints, not against the module's
own field table; the rewrites are checked on every statement text the repo
keeps (lexer fixture, TPC-H, the sqlite differential's fixed queries).
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from pathlib import Path

import pytest

from repro.core.interceptor import (
    name_placeholders,
    redirect_names,
    referenced_tables,
    statement_templates,
)
from repro.errors import Error
from repro.sql import ast, parse_script
from repro.sql.walk import aggregate_calls, children, transform, walk
from repro.workloads.tpch.queries import QUERY_ORDER, query_sql
from tests.test_differential_sqlite import FIXED_QUERIES

NODE_CLASSES = [
    cls
    for cls in vars(ast).values()
    if isinstance(cls, type) and issubclass(cls, ast.Node) and dataclasses.is_dataclass(cls)
]


def holding_a_marker(hint, marker: ast.Node):
    """A value of type ``hint`` with ``marker`` in it, or None when the type
    cannot hold a node."""
    if isinstance(hint, type) and issubclass(hint, ast.Node):
        return marker
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return next((v for v in (holding_a_marker(a, marker) for a in args) if v is not None), None)
    if origin is list:
        inner = holding_a_marker(args[0], marker)
        return None if inner is None else [inner]
    if origin is tuple:
        inner = [holding_a_marker(a, marker) for a in args]
        if all(v is None for v in inner):
            return None
        return tuple("x" if v is None else v for v in inner)
    return None


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_children_yields_every_field_that_can_hold_a_node(cls):
    hints = typing.get_type_hints(cls, vars(ast))
    for field in dataclasses.fields(cls):
        marker = ast.Param(f"marker_{field.name}")
        value = holding_a_marker(hints[field.name], marker)
        if value is None:
            continue
        node = cls.__new__(cls)
        for other in dataclasses.fields(cls):
            setattr(node, other.name, None)
        setattr(node, field.name, value)
        assert any(child is marker for child in children(node)), field.name


def test_the_completeness_check_sees_the_nested_fields():
    """The oracle itself: tuples in lists and optional fields are found."""
    found = {
        (cls.__name__, field.name)
        for cls in NODE_CLASSES
        for field in dataclasses.fields(cls)
        if holding_a_marker(typing.get_type_hints(cls, vars(ast))[field.name], ast.Star())
    }
    assert {
        ("CaseExpr", "whens"), ("Update", "assignments"), ("Insert", "rows"),
        ("Like", "escape"), ("Select", "as_of"), ("CreateProcedure", "params"),
        ("Explain", "select"), ("CreateView", "select"), ("ColumnDef", "default"),
    } <= found
    assert not {("Literal", "value"), ("Insert", "columns"), ("ColumnRef", "table")} & found


def test_children_come_in_field_order_and_walk_is_parents_first():
    stmt = parse_script("SELECT CASE WHEN a = 1 THEN b ELSE c END FROM t WHERE d LIKE 'x' ESCAPE '!'")[0]
    case = stmt.items[0].expr
    assert [c.sql() for c in children(case)] == ["(a = 1)", "b", "c"]
    assert [c.sql() for c in children(stmt.where)] == ["d", "'x'", "'!'"]
    order = [type(n).__name__ for n in walk(stmt)]
    assert order[:3] == ["Select", "SelectItem", "CaseExpr"]
    assert order.index("TableName") < order.index("Like")


def test_transform_is_one_level_and_copy_on_write():
    stmt = parse_script("SELECT a + 1 FROM t WHERE b = 2")[0]
    assert transform(stmt, lambda child: child) is stmt
    swapped = transform(stmt, lambda c: ast.TableName("u") if isinstance(c, ast.TableName) else c)
    assert swapped is not stmt and swapped.sql() == "SELECT (a + 1) FROM u WHERE (b = 2)"
    assert swapped.where is stmt.where and swapped.items is stmt.items
    assert stmt.sql() == "SELECT (a + 1) FROM t WHERE (b = 2)"


def _children_by_transform(node: ast.Node) -> list[ast.Node]:
    """What ``transform`` hands its function: the reading ``children`` must
    agree with, node for node."""
    found: list[ast.Node] = []
    transform(node, lambda child: found.append(child) or child)
    return found


def _walk_by_transform(node: ast.Node):
    stack = [node]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children_by_transform(node)))


def _wire_texts() -> list[str]:
    """Every statement text Phoenix sends in the pinned wire script."""
    recorded = json.loads((Path(__file__).parent / "data" / "phoenix_wire_texts.json").read_text())
    return [text for _kind, text, _values in recorded]


@pytest.mark.parametrize(
    "text",
    [query_sql(q) for q in QUERY_ORDER] + _wire_texts(),
    ids=[f"tpch:{q}" for q in QUERY_ORDER] + [f"wire:{i}" for i in range(len(_wire_texts()))],
)
def test_walk_yields_the_nodes_transform_visits_by_identity_and_in_order(text):
    for stmt in parse_script(text):
        walked = list(walk(stmt))
        reference = list(_walk_by_transform(stmt))
        assert len(walked) == len(reference)
        assert all(a is b for a, b in zip(walked, reference))
        for node in walked:
            assert [id(c) for c in children(node)] == [id(c) for c in _children_by_transform(node)]


def test_aggregate_calls_stop_at_subqueries_and_at_aggregates():
    stmt = parse_script(
        "SELECT sum(a) + max(abs(b)), (SELECT min(c) FROM u), upper(d) FROM t "
        "WHERE e IN (SELECT count(*) FROM v)"
    )[0]
    found = [call.sql() for item in stmt.items for call in aggregate_calls(item.expr)]
    assert found == ["sum(a)", "max(abs(b))"]
    assert list(aggregate_calls(stmt.where)) == []


# ---------------------------------------------------------------- the rewrites, on every text

def _texts() -> dict[str, str]:
    golden = json.loads((Path(__file__).parent / "data" / "lexer_golden.json").read_text())
    texts = {f"golden:{name}": entry["text"] for name, entry in golden["streams"].items()}
    texts.update({f"tpch:{q}": query_sql(q) for q in QUERY_ORDER})
    texts.update({f"fixed:{i}": sql for i, sql in enumerate(FIXED_QUERIES)})
    return texts


TEXTS = _texts()


def _statements(text: str) -> list[ast.Statement]:
    try:
        return parse_script(text)
    except Error:
        return []  # a lexer sample that is not a statement of the dialect


def test_the_texts_cover_the_dialect():
    classes = {type(node) for text in TEXTS.values() for stmt in _statements(text) for node in walk(stmt)}
    assert len(TEXTS) > 100 and len(classes) >= 30
    assert {ast.CaseExpr, ast.Exists, ast.SubquerySource, ast.Join, ast.UnionSelect,
            ast.Insert, ast.Update, ast.Delete, ast.CreateProcedure, ast.ExecProcedure} <= classes


@pytest.mark.parametrize("name", TEXTS)
def test_rewrites_read_the_whole_statement_and_leave_it_alone(name):
    for stmt in _statements(TEXTS[name]):
        rendered = stmt.sql()
        names = sorted(referenced_tables(stmt))
        everything = {table: f"moved_{i}" for i, table in enumerate(names)}

        moved = redirect_names(stmt, everything)
        assert referenced_tables(moved) == set(everything.values())

        # nothing to do: the statement itself comes back
        assert redirect_names(stmt, {}) is stmt
        assert redirect_names(stmt, {"no_such_table": "x"}, {"no_such_proc": "y"}) is stmt
        if not any(isinstance(node, ast.Placeholder) for node in walk(stmt)):
            body, n_values = name_placeholders(stmt)
            assert body is stmt and n_values == 0

        # one name redirected: what does not hold it is shared, what does is new
        if names:
            partly = redirect_names(stmt, {names[0]: "moved_0"})
            kept = {id(node) for node in walk(partly)}
            for node in walk(stmt):
                assert (id(node) in kept) != (names[0] in referenced_tables(node)), node.sql()

        assert stmt.sql() == rendered  # the template was never touched


BOUND_TEXTS = {name: text for name, text in TEXTS.items() if "?" in text} | {
    "update": "UPDATE acct SET v = v + ? WHERE k IN (SELECT k FROM w WHERE a = 1) AND j = ?",
    "everywhere a value goes": (
        "SELECT ?, CASE WHEN k = ? THEN ? ELSE ? END AS c FROM t JOIN u ON t.x = u.x + ? "
        "WHERE k IN (SELECT k FROM w WHERE a = ?) AND k IN (?, ?) AND v BETWEEN ? AND ? "
        "AND s LIKE ? AND EXISTS (SELECT 1 FROM w WHERE w.k = t.k - ?) "
        "GROUP BY k HAVING count(*) > ?"
    ),
    "union": "SELECT k FROM q WHERE k = ? UNION SELECT k + ? FROM q WHERE k = ? ORDER BY 1",
    "insert": "INSERT INTO t (a, b) VALUES (?, ?), (?, -?)",
    "a script": "SELECT k FROM f WHERE k = ?; UPDATE f SET s = ? WHERE k = ?; EXEC p ?, ?",
}


@pytest.mark.parametrize("name", BOUND_TEXTS)
def test_binding_shares_what_holds_no_placeholder(name):
    for stmt in _statements(BOUND_TEXTS[name]):
        holders = [n for n in walk(stmt) if isinstance(n, ast.Placeholder)]
        if not holders or not isinstance(stmt, (ast.Select, ast.UnionSelect, ast.Insert, ast.Update, ast.Delete)):
            continue
        rendered = stmt.sql()
        bound, n_values = name_placeholders(stmt)
        assert n_values == max(n.index for n in holders) + 1
        assert not any(isinstance(n, ast.Placeholder) for n in walk(bound))
        kept = {id(node) for node in walk(bound)}
        for node in walk(stmt):
            holds = any(isinstance(n, ast.Placeholder) for n in walk(node))
            assert (id(node) in kept) != holds, node.sql()
        assert stmt.sql() == rendered


@pytest.mark.parametrize("name", BOUND_TEXTS)
def test_a_template_renders_its_placeholders_in_number_order(name):
    """A statement Phoenix sends is a template rendered, with the values of
    its ``?`` in number order beside it; the server numbers the rendered
    ``?`` left to right, so rendering must keep them in that order (each
    template's own are numbered from 0, whatever came before it)."""
    if not _statements(BOUND_TEXTS[name]):
        return
    for template in statement_templates(BOUND_TEXTS[name]):
        (rendered,) = parse_script(template.stmt.sql())
        numbers = [
            [n.index for n in walk(stmt) if isinstance(n, ast.Placeholder)]
            for stmt in (template.stmt, rendered)
        ]
        assert numbers[0] == numbers[1]
        assert sorted(numbers[0]) == list(range(len(numbers[0])))
