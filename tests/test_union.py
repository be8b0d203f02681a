"""Tests for UNION / UNION ALL across the stack."""

from __future__ import annotations

import pytest

from repro.errors import ProgrammingError
from repro.sql import ast, parse
from tests.conftest import execute


@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE a (x INT, tag VARCHAR(3))")
    execute(server, sid, "CREATE TABLE b (x INT, tag VARCHAR(3))")
    execute(server, sid, "INSERT INTO a VALUES (1, 'a'), (2, 'a'), (2, 'a')")
    execute(server, sid, "INSERT INTO b VALUES (2, 'a'), (3, 'b')")
    return server, sid


# ---------------------------------------------------------------- parsing

def test_union_parses_to_union_select():
    stmt = parse("SELECT 1 UNION SELECT 2")
    assert isinstance(stmt, ast.UnionSelect)
    assert stmt.all_flags == [False]


def test_union_all_flag():
    stmt = parse("SELECT 1 UNION ALL SELECT 2 UNION SELECT 3")
    assert stmt.all_flags == [True, False]


def test_trailing_order_limit_belongs_to_union():
    stmt = parse("SELECT x FROM a UNION SELECT x FROM b ORDER BY x LIMIT 2")
    assert isinstance(stmt, ast.UnionSelect)
    assert stmt.limit == 2 and len(stmt.order_by) == 1
    assert stmt.parts[0].limit is None and not stmt.parts[0].order_by


def test_plain_select_unchanged():
    stmt = parse("SELECT x FROM a ORDER BY x LIMIT 2 OFFSET 1")
    assert isinstance(stmt, ast.Select)
    assert (stmt.limit, stmt.offset) == (2, 1)


def test_union_renders_and_reparses():
    sql = "SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY 1 LIMIT 3"
    once = parse(sql).sql()
    assert parse(once).sql() == once


# ---------------------------------------------------------------- execution

def test_union_dedupes(db):
    server, sid = db
    rows = execute(server, sid, "SELECT x FROM a UNION SELECT x FROM b ORDER BY x")
    assert rows == [(1,), (2,), (3,)]


def test_union_all_keeps_duplicates(db):
    server, sid = db
    rows = execute(server, sid, "SELECT x FROM a UNION ALL SELECT x FROM b ORDER BY x")
    assert rows == [(1,), (2,), (2,), (2,), (3,)]


def test_union_order_by_name_and_position(db):
    server, sid = db
    by_name = execute(server, sid, "SELECT x FROM a UNION SELECT x FROM b ORDER BY x DESC")
    by_pos = execute(server, sid, "SELECT x FROM a UNION SELECT x FROM b ORDER BY 1 DESC")
    assert by_name == by_pos == [(3,), (2,), (1,)]


def test_union_limit_offset(db):
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT x FROM a UNION SELECT x FROM b ORDER BY x LIMIT 2 OFFSET 1",
    )
    assert rows == [(2,), (3,)]


def test_union_column_count_mismatch_rejected(db):
    server, sid = db
    with pytest.raises(ProgrammingError):
        execute(server, sid, "SELECT x FROM a UNION SELECT x, tag FROM b")


def test_union_order_by_unknown_column_rejected(db):
    server, sid = db
    with pytest.raises(ProgrammingError):
        execute(server, sid, "SELECT x FROM a UNION SELECT x FROM b ORDER BY zz")


def test_union_in_derived_table(db):
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT count(*), sum(x) FROM (SELECT x FROM a UNION SELECT x FROM b) u",
    )
    assert rows == [(3, 6)]


def test_union_in_in_subquery(db):
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT DISTINCT x FROM a WHERE x IN (SELECT x FROM b UNION SELECT 1) ORDER BY x",
    )
    assert rows == [(1,), (2,)]


def test_insert_from_union(db):
    server, sid = db
    execute(server, sid, "CREATE TABLE dst (x INT)")
    count = execute(server, sid, "INSERT INTO dst SELECT x FROM a UNION SELECT x FROM b")
    assert count == 3


def test_select_into_from_union_creates_the_table(db):
    """The INTO used to be dropped in silence: rows came back, no table."""
    server, sid = db
    stmt = parse("SELECT x INTO dst FROM a UNION SELECT x FROM b ORDER BY x")
    assert isinstance(stmt, ast.UnionSelect) and stmt.into == "dst"
    assert stmt.parts[0].into is None
    assert parse(stmt.sql()).sql() == stmt.sql() and " INTO dst FROM a UNION " in stmt.sql()
    assert execute(server, sid, stmt.sql()) == 3  # a rowcount, not rows
    assert execute(server, sid, "SELECT x FROM dst") == [(1,), (2,), (3,)]
    with pytest.raises(ProgrammingError):
        parse("SELECT x FROM a UNION SELECT x INTO dst2 FROM b")


def test_select_into_from_union_in_a_procedure(db):
    server, sid = db
    execute(
        server, sid,
        "CREATE PROCEDURE fill AS BEGIN SELECT x INTO dst FROM a UNION ALL SELECT x FROM b END",
    )
    assert execute(server, sid, "EXEC fill") == 5
    execute(server, sid, "CREATE PROCEDURE both AS BEGIN SELECT x FROM a UNION SELECT x FROM b END")
    assert sorted(execute(server, sid, "EXEC both")) == [(1,), (2,), (3,)]


def test_union_with_constants(db):
    server, sid = db
    rows = execute(server, sid, "SELECT 1 UNION SELECT 1 UNION ALL SELECT 2 ORDER BY 1")
    assert rows == [(1,), (2,)]


def test_union_aggregate_parts(db):
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT count(*) FROM a UNION ALL SELECT count(*) FROM b ORDER BY 1",
    )
    assert rows == [(2,), (3,)]


def test_explain_union(db):
    server, sid = db
    lines = [r[0] for r in execute(server, sid, "EXPLAIN SELECT x FROM a UNION SELECT x FROM b")]
    assert lines[0].startswith("Union part 1")
    assert any("Scan b" in line for line in lines)


# ---------------------------------------------------------------- phoenix

def test_union_through_phoenix_survives_crash(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE a (x INT)")
    cur.execute("CREATE TABLE b (x INT)")
    cur.execute("INSERT INTO a VALUES (1), (2)")
    cur.execute("INSERT INTO b VALUES (2), (3)")
    cur.execute("SELECT x FROM a UNION SELECT x FROM b ORDER BY x")
    first = cur.fetchmany(1)
    system.server.crash()
    system.endpoint.restart_server()
    phoenix_conn.cursor().execute("SELECT 1")  # trigger recovery
    rest = cur.fetchall()
    assert first + rest == [(1,), (2,), (3,)]


def test_union_redirects_temp_tables(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE base (x INT)")
    cur.execute("INSERT INTO base VALUES (1)")
    cur.execute("CREATE TABLE #w (x INT)")
    cur.execute("INSERT INTO #w VALUES (9)")
    cur.execute("SELECT x FROM base UNION SELECT x FROM #w ORDER BY x")
    assert cur.fetchall() == [(1,), (9,)]


def test_union_into_temp_table_through_phoenix(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE base (x INT)")
    cur.execute("INSERT INTO base VALUES (1), (2)")
    cur.execute("SELECT x INTO #both FROM base UNION ALL SELECT x FROM base")
    assert cur.rowcount == 4
    cur.execute("SELECT count(*) FROM #both")
    assert cur.fetchall() == [(4,)]
    phoenix_conn.close()
    assert [n for n in system.server.table_names() if n.startswith("phx_")] == []
