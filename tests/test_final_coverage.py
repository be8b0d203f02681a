"""Last-mile coverage: lifecycle corners the other suites skip."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, CommunicationError, ProgrammingError
from repro.net import FaultKind
from repro.odbc.constants import CursorType, StatementAttr


def test_statement_close_releases_server_cursor(system, plain_conn):
    cur = plain_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1), (2), (3)")
    cur2 = plain_conn.cursor()
    cur2.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur2.execute("SELECT k FROM t")
    cur2.fetchone()
    session = next(iter(system.server.sessions.values()))
    assert session.cursors  # server-side cursor open
    cur2.close()
    assert not session.cursors  # released


def test_phoenix_crash_during_keys_fill(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5))")
    cur.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, 'v')" for i in range(1, 16)))
    system.faults.schedule(
        FaultKind.CRASH_AFTER_EXECUTE,
        matcher=lambda r: "keys" in getattr(r, "sql", "") and "EXEC" in getattr(r, "sql", ""),
    )
    ks = phoenix_conn.cursor()
    ks.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    ks.execute("SELECT k FROM t")
    assert [r[0] for r in ks.fetchall()] == list(range(1, 16))


def test_phoenix_recovery_during_connect_retry_limit(system, monkeypatch):
    """Connect against a permanently-down server surfaces the error after
    bounded retries (never hangs)."""
    from repro.core import PhoenixConfig, recovery

    monkeypatch.setattr(recovery, "MAX_PING_ATTEMPTS", 2)
    monkeypatch.setattr(recovery, "MAX_RECOVERY_ATTEMPTS", 2)
    system.server.crash()
    with pytest.raises(CommunicationError):
        system.phoenix.connect(system.DSN, config=PhoenixConfig(sleep=lambda _s: None))


def test_cursor_reuse_after_recovery(system, phoenix_conn):
    """One cursor object used across many executes and crashes."""
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    for i in range(3):
        cur.execute(f"INSERT INTO t VALUES ({i})")
        system.server.crash()
        system.endpoint.restart_server()
        cur.execute("SELECT count(*) FROM t")
        assert cur.fetchone() == (i + 1,)


def test_view_referencing_dropped_table_fails_cleanly(session):
    from tests.conftest import execute

    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "CREATE VIEW v AS SELECT k FROM t")
    execute(server, sid, "DROP TABLE t")
    with pytest.raises(CatalogError):
        execute(server, sid, "SELECT * FROM v")


def test_drop_view_then_create_table_same_name(session):
    from tests.conftest import execute

    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "CREATE VIEW v AS SELECT k FROM t")
    execute(server, sid, "DROP VIEW v")
    execute(server, sid, "CREATE TABLE v (x INT)")
    execute(server, sid, "INSERT INTO v VALUES (1)")
    assert execute(server, sid, "SELECT x FROM v") == [(1,)]


def test_fetch_before_execute_is_empty(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    assert cur.fetchall() == []
    assert cur.fetchone() is None


def test_empty_sql_batch(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute(";;  ;")
    assert cur.fetchall() == []


def test_interleaved_cursors_one_connection_with_crash(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(1, 31)))
    a = phoenix_conn.cursor()
    b = phoenix_conn.cursor()
    a.execute("SELECT k FROM t ORDER BY k")
    b.execute("SELECT k FROM t ORDER BY k DESC")
    got_a = a.fetchmany(10)
    got_b = b.fetchmany(10)
    system.server.crash()
    system.endpoint.restart_server()
    phoenix_conn.cursor().execute("SELECT 1")
    got_a += a.fetchall()
    got_b += b.fetchall()
    assert [r[0] for r in got_a] == list(range(1, 31))
    assert [r[0] for r in got_b] == list(range(30, 0, -1))


def test_union_keyset_request_downgrades(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1), (2)")
    cur.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur.execute("SELECT k FROM t UNION SELECT 99 ORDER BY 1")
    assert cur.effective_cursor_type == CursorType.FORWARD_ONLY
    assert cur.fetchall() == [(1,), (2,), (99,)]


def test_explain_union_through_server(session):
    from tests.conftest import execute

    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    lines = execute(server, sid, "EXPLAIN SELECT k FROM t UNION ALL SELECT k FROM t")
    assert lines[0][0].startswith("Union part 1")
