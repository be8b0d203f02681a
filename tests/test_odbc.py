"""ODBC client-stack tests: driver, driver manager, statements."""

from __future__ import annotations

import pytest

from repro import errors
from repro.engine import DatabaseServer
from repro.net import FaultKind, ServerEndpoint
from repro.odbc import DriverManager, NativeDriver
from repro.odbc.constants import CursorType, StatementAttr


@pytest.fixture()
def stack():
    server = DatabaseServer()
    endpoint = ServerEndpoint(server)
    manager = DriverManager()
    manager.register_dsn("db", NativeDriver(endpoint))
    return server, endpoint, manager


@pytest.fixture()
def conn(stack):
    _server, _endpoint, manager = stack
    connection = manager.connect("db")
    yield connection
    if not connection.closed:
        try:
            connection.close()
        except errors.Error:
            pass


def test_unknown_dsn_rejected(stack):
    *_rest, manager = stack
    with pytest.raises(errors.InterfaceError):
        manager.connect("nope")


def test_execute_and_fetch_paths(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5))")
    cur.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    assert cur.rowcount == 3
    cur.execute("SELECT * FROM t ORDER BY k")
    assert cur.fetchone() == (1, "a")
    assert cur.fetchmany(1) == [(2, "b")]
    assert cur.fetchall() == [(3, "c")]
    assert cur.fetchone() is None
    assert cur.rows_read == 3


def test_description_present_for_queries(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5))")
    cur.execute("SELECT k, v FROM t")
    names = [d[0] for d in cur.description]
    assert names == ["k", "v"]
    assert cur.description[0][1] == "INT"


def test_ddl_leaves_no_description(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT)")
    assert cur.description is None
    assert cur.fetchall() == []


def test_execute_resets_previous_result(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT)")
    cur.execute("INSERT INTO t VALUES (1), (2)")
    cur.execute("SELECT k FROM t")
    cur.fetchone()
    cur.execute("SELECT k FROM t WHERE k = 2")
    assert cur.fetchall() == [(2,)]


def test_statement_attrs_validated(conn):
    cur = conn.cursor()
    with pytest.raises(errors.ProgrammingError):
        cur.set_attr("bogus", 1)


def test_keyset_cursor_block_fetching(stack, conn):
    server, _endpoint, _manager = stack
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(1, 26)))
    cur2 = conn.cursor()
    cur2.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur2.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 10)
    cur2.execute("SELECT k FROM t")
    assert cur2.effective_cursor_type == CursorType.KEYSET
    assert len(cur2.fetchall()) == 25


def test_placeholders(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT, v VARCHAR(5))")
    cur.execute("INSERT INTO t VALUES (?, ?)", [5, "five"])
    cur.execute("SELECT v FROM t WHERE k = ?", [5])
    assert cur.fetchone() == ("five",)


def test_transactions_via_connection(conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT)")
    conn.begin()
    cur.execute("INSERT INTO t VALUES (1)")
    conn.rollback()
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (0,)


def test_set_option_applies_server_side(stack, conn):
    server, *_ = stack
    conn.cursor().execute("SET app_name 'repro-tests'")
    session = next(iter(server.sessions.values()))
    assert session.options["app_name"] == "repro-tests"


def test_closed_connection_rejects_use(conn):
    conn.close()
    with pytest.raises(errors.InterfaceError):
        conn.cursor()


def test_closed_statement_rejects_use(conn):
    cur = conn.cursor()
    cur.close()
    with pytest.raises(errors.InterfaceError):
        cur.execute("SELECT 1")


def test_connection_context_manager(stack):
    *_rest, manager = stack
    with manager.connect("db") as connection:
        cur = connection.cursor()
        cur.execute("SELECT 1")
        assert cur.fetchone() == (1,)
    assert connection.closed


def test_close_disconnects_server_session(stack, conn):
    server, *_ = stack
    assert len(server.sessions) == 1
    conn.close()
    assert len(server.sessions) == 0


def test_native_stack_exposes_crash_to_app(stack, conn):
    """The baseline behavior Phoenix exists to fix (paper §2)."""
    server, endpoint, _manager = stack
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT)")
    endpoint.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE)
    with pytest.raises(errors.CommunicationError):
        cur.execute("SELECT * FROM t")
    # and the connection is unusable afterwards
    with pytest.raises(errors.CommunicationError):
        cur.execute("SELECT 1")


def test_native_cursor_lost_on_crash(stack, conn):
    server, endpoint, _manager = stack
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1), (2), (3)")
    cur2 = conn.cursor()
    cur2.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur2.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 1)
    cur2.execute("SELECT k FROM t")
    assert cur2.fetchone() == (1,)
    server.crash()
    endpoint.restart_server()
    with pytest.raises(errors.Error):
        cur2.fetchmany(5)  # server cursor gone with the session


def test_driver_ping_uses_throwaway_channel(stack):
    server, endpoint, manager = stack
    driver = manager.driver_for("db")
    assert driver.ping().server_epoch == 0
    server.crash()
    with pytest.raises(errors.ServerCrashedError):
        driver.ping()
    endpoint.restart_server()
    assert driver.ping().server_epoch == 1  # fresh channel each time


def test_table_schema_catalog_call(stack, conn):
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (a INT, b INT, PRIMARY KEY (a, b))")
    schema = conn._driver_connection.table_schema("t")
    assert schema.primary_key == ("a", "b")
