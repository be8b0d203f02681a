"""Phoenix interceptor tests: classification, rewriting, templates."""

from __future__ import annotations

import pytest

from repro.core.interceptor import (
    StatementClass,
    classify,
    name_placeholders,
    placeholder_values,
    redirect_names,
    referenced_tables,
    statement_templates,
    with_false_where,
)
from repro.core.naming import NameAllocator, PROXY_TABLE
from repro.errors import SQLSyntaxError
from repro.sql import ast, parse
from repro.sql.walk import walk


# ---------------------------------------------------------------- classify

@pytest.mark.parametrize("sql,expected", [
    ("SELECT 1", StatementClass.QUERY),
    ("SELECT a INTO t FROM s", StatementClass.DML),
    ("INSERT INTO t VALUES (1)", StatementClass.DML),
    ("UPDATE t SET a = 1", StatementClass.DML),
    ("DELETE FROM t", StatementClass.DML),
    ("BEGIN", StatementClass.TXN_BEGIN),
    ("COMMIT", StatementClass.TXN_COMMIT),
    ("ROLLBACK", StatementClass.TXN_ROLLBACK),
    ("SET x 1", StatementClass.SET_OPTION),
    ("CREATE TABLE #w (a INT)", StatementClass.CREATE_TEMP_TABLE),
    ("CREATE TEMPORARY TABLE w (a INT)", StatementClass.CREATE_TEMP_TABLE),
    ("CREATE TABLE w (a INT)", StatementClass.DDL),
    ("DROP TABLE #w", StatementClass.DROP_TEMP_TABLE),
    ("DROP TABLE w", StatementClass.DDL),
    ("CREATE PROCEDURE #p AS SELECT 1", StatementClass.CREATE_TEMP_PROC),
    ("CREATE PROCEDURE p AS SELECT 1", StatementClass.DDL),
    ("DROP PROCEDURE #p", StatementClass.DROP_TEMP_PROC),
    ("DROP PROCEDURE p", StatementClass.DDL),
    ("EXEC p", StatementClass.EXEC),
    ("CHECKPOINT", StatementClass.OTHER),
])
def test_classify(sql, expected):
    assert classify(parse(sql)) is expected


# ---------------------------------------------------------------- false where

def test_false_where_without_existing_where():
    probe = with_false_where(parse("SELECT a FROM t"))
    assert "(0 = 1)" in probe.sql()


def test_false_where_conjoins_existing_where():
    probe = with_false_where(parse("SELECT a FROM t WHERE a > 1"))
    assert "AND (0 = 1)" in probe.sql()
    assert "(a > 1)" in probe.sql()


def test_false_where_drops_order_by():
    probe = with_false_where(parse("SELECT a FROM t ORDER BY a"))
    assert "ORDER BY" not in probe.sql()


def test_false_where_preserves_grouping():
    probe = with_false_where(parse("SELECT a, count(*) FROM t GROUP BY a"))
    assert "GROUP BY" in probe.sql()


# ---------------------------------------------------------------- redirect

def redirect(sql: str, mapping: dict, procs: dict | None = None) -> str:
    return redirect_names(parse(sql), mapping, procs).sql()


def test_redirect_table_in_from():
    assert "phx_w" in redirect("SELECT * FROM #w", {"#w": "phx_w"})


def test_redirect_is_case_insensitive():
    assert "phx_w" in redirect("SELECT * FROM #W", {"#w": "phx_w"})


def test_redirect_in_join_and_subqueries():
    sql = (
        "SELECT * FROM #a JOIN base_t ON #a.x = base_t.x "
        "WHERE y IN (SELECT y FROM #b) AND EXISTS (SELECT 1 FROM #c)"
    )
    rewritten = redirect(sql, {"#a": "pa", "#b": "pb", "#c": "pc"})
    for name in ("pa", "pb", "pc"):
        assert name in rewritten
    assert "#a" not in rewritten and "base_t" in rewritten


def test_redirect_dml_targets():
    assert "pw" in redirect("INSERT INTO #w VALUES (1)", {"#w": "pw"})
    assert "pw" in redirect("UPDATE #w SET a = 1", {"#w": "pw"})
    assert "pw" in redirect("DELETE FROM #w", {"#w": "pw"})


def test_redirect_select_into_target():
    assert "pw" in redirect("SELECT a INTO #w FROM t", {"#w": "pw"})


def test_redirect_derived_table():
    rewritten = redirect("SELECT * FROM (SELECT a FROM #w) d", {"#w": "pw"})
    assert "pw" in rewritten


def test_redirect_procedure_names():
    rewritten = redirect("EXEC #p 1", {}, {"#p": "pp"})
    assert rewritten == "EXEC pp 1"


def test_redirect_procedure_body():
    rewritten = redirect(
        "CREATE PROCEDURE q AS INSERT INTO #w VALUES (1)", {"#w": "pw"}
    )
    assert "pw" in rewritten


def test_redirect_untouched_names_stay():
    assert redirect("SELECT * FROM normal", {"#w": "pw"}) == "SELECT * FROM normal"


def test_referenced_tables_walks_everything():
    names = referenced_tables(parse(
        "SELECT * FROM a JOIN b ON a.x = b.x WHERE y IN (SELECT y FROM c)"
    ))
    assert {"a", "b", "c"} <= names


def test_redirect_without_temp_objects_returns_the_statement_itself():
    stmt = parse("SELECT * FROM normal")
    assert redirect_names(stmt, {}) is stmt
    assert redirect_names(stmt, {}, {}) is stmt


def test_redirect_rewrites_a_copy():
    stmt = parse("SELECT * FROM #w WHERE #w.x IN (SELECT x FROM #w)")
    rendered = stmt.sql()
    rewritten = redirect_names(stmt, {"#w": "pw"})
    assert rewritten is not stmt and "#w" not in rewritten.sql()
    assert stmt.sql() == rendered


def test_referenced_tables_leaves_the_statement_alone():
    stmt = parse("SELECT * FROM A JOIN #b ON A.x = #b.x")
    rendered = stmt.sql()
    assert referenced_tables(stmt) == {"a", "#b"}
    assert stmt.sql() == rendered


# ---------------------------------------------------------------- templates

def test_statement_templates_parse_a_text_once_and_classify_it():
    text = "SELECT a FROM t WHERE k = ?; UPDATE t SET a = ? WHERE k = ?"
    templates = statement_templates(text)
    assert [t.kind for t in templates] == [StatementClass.QUERY, StatementClass.DML]
    assert statement_templates(text) is templates


def test_each_template_binds_its_own_slice_of_the_values():
    """The parser numbers ``?`` across the whole text; each template keeps
    its own, numbered from 0, and the slice of the bound values they take."""
    templates = statement_templates(
        "SELECT a FROM t WHERE k = ?; CHECKPOINT; UPDATE t SET a = ? WHERE k = ? AND v < ?"
    )
    assert [t.values for t in templates] == [slice(0, 1), slice(1, 1), slice(1, 4)]
    bound = ["k1", "a", "k2", "v"]
    assert [bound[t.values] for t in templates] == [["k1"], [], ["a", "k2", "v"]]
    update = templates[2].stmt
    assert [n.index for n in walk(update) if isinstance(n, ast.Placeholder)] == [0, 1, 2]
    assert update.sql() == "UPDATE t SET a = ? WHERE ((k = ?) AND (v < ?))"


def test_placeholder_values_follow_the_text_of_a_rewrite():
    """A rewrite that drops some of a template's ``?`` and appends its own
    (numbered after the template's) binds what its text still shows, in
    text order."""
    template = parse("SELECT ? AS tag, k FROM t WHERE k > ? ORDER BY k")
    probe = with_false_where(template)
    assert placeholder_values(probe, ["x", 3]) == ["x", 3]
    block = ast.Select(
        template.items,
        template.from_,
        ast.InList(ast.ColumnRef("k"), [ast.Placeholder(2), ast.Placeholder(3)]),
    )
    assert block.sql().count("?") == 3
    assert placeholder_values(block, ["x", 3, 10, 11]) == ["x", 10, 11]


def test_statement_templates_are_bounded_and_skip_load_scripts():
    from repro.core import interceptor

    for i in range(interceptor.TEMPLATE_CACHE_CAPACITY + 20):
        statement_templates(f"SELECT {i}")
    assert interceptor._templates.cache_info().currsize == interceptor.TEMPLATE_CACHE_CAPACITY
    load = "INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(3000))
    assert len(load) > interceptor.TEMPLATE_MAX_CHARS
    assert statement_templates(load) is not statement_templates(load)
    with pytest.raises(SQLSyntaxError):
        statement_templates("SELEC 1")
    with pytest.raises(SQLSyntaxError):  # an error is not cached either
        statement_templates("SELEC 1")


def test_statement_templates_survive_threads_racing_on_a_full_cache():
    """One cache, clients on many threads: lookups, insertions and evictions
    interleave (more texts than capacity, a microsecond switch interval) and
    every caller must still get the parse of *its* text."""
    import sys
    import threading

    from repro.core import interceptor

    texts = [f"SELECT {i} FROM t WHERE k = ?" for i in range(interceptor.TEMPLATE_CACHE_CAPACITY * 2)]
    failures: list[str] = []

    def client(offset: int) -> None:
        try:
            for step in range(1500):
                text = texts[(offset + step * 7) % len(texts)]
                (template,) = statement_templates(text)
                stmt, kind = template.stmt, template.kind
                if stmt.sql() != text.replace("k = ?", "(k = ?)") or kind is not StatementClass.QUERY:
                    failures.append(f"{text!r} came back as {stmt.sql()!r}")
        except Exception as exc:  # a lost race inside the LRU raises KeyError
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=client, args=(i * 31,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert interceptor._templates.cache_info().currsize <= interceptor.TEMPLATE_CACHE_CAPACITY


# ---------------------------------------------------------------- placeholders

def test_name_placeholders_makes_a_procedure_body_of_a_template():
    template = parse("SELECT a, ? AS tag FROM t WHERE b > ? AND a IN (SELECT a FROM u WHERE c = ?)")
    body, n_values = name_placeholders(template)
    assert n_values == 3
    assert body.sql() == (
        "SELECT a, @p0 AS tag FROM t "
        "WHERE ((b > @p1) AND (a IN (SELECT a FROM u WHERE (c = @p2))))"
    )
    # a pure rewrite: the shared template keeps its placeholders
    assert template.sql().count("?") == 3 and "@p" not in template.sql()
    # nothing to name: the template itself, taking no values
    plain = parse("SELECT a FROM t")
    assert name_placeholders(plain) == (plain, 0)


# ---------------------------------------------------------------- naming

def test_name_allocator_unique_per_connection():
    a, b = NameAllocator(), NameAllocator()
    assert a.client_id != b.client_id
    assert a.status_table != b.status_table


def test_name_allocator_sequences():
    names = NameAllocator()
    assert names.next_seq() == 1
    assert names.next_seq() == 2
    assert names.next_table() != names.next_table()


def test_redirected_names_strip_hash():
    names = NameAllocator()
    assert "#" not in names.redirected_table("#Work")
    assert names.redirected_table("#Work").endswith("_tmp_work")
    assert "#" not in names.redirected_procedure("#p")


def test_proxy_table_is_a_real_temp_name():
    assert PROXY_TABLE.startswith("#")
