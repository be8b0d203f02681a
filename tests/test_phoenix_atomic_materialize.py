"""Everything Phoenix builds on a statement's behalf is ONE transaction.

Materialisation (DDL + fill procedure + EXEC, plus the key count for key
cursors), redirected temp objects (DROP + CREATE) and the clean-termination
DROPs each travel as ``BEGIN TRANSACTION; ...; COMMIT`` in one request — so
they cost one round trip and one log force, and neither a SQL error nor a
crash can leave a half-built unit behind.
"""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, DataError
from repro.net import FaultKind
from repro.net.protocol import ExecuteRequest
from repro.odbc.constants import CursorType, StatementAttr


@pytest.fixture()
def ready(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    cur.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(1, 21)))
    return system, phoenix_conn, cur


def phoenix_objects(system) -> list[str]:
    """Every ``phx_*`` table and procedure the server holds."""
    names = system.server.table_names() + sorted(system.server.database.procedures)
    return [name for name in names if name.startswith("phx_")]


def built_for_statements(system) -> list[str]:
    """Phoenix objects other than the per-session status table."""
    return [name for name in phoenix_objects(system) if not name.endswith("_status")]


def is_materialize_script(request) -> bool:
    sql = getattr(request, "sql", "")
    return sql.startswith("BEGIN TRANSACTION") and "EXEC phx_" in sql


def record_execute_sql(system) -> list[str]:
    """The SQL of every ExecuteRequest sent from now on (a fault whose
    matcher only records and never fires)."""
    sent: list[str] = []
    system.faults.schedule(
        FaultKind.HANG,
        matcher=lambda r: sent.append(r.sql) if isinstance(r, ExecuteRequest) else False,
        repeat=True,
    )
    return sent


def keyset_cursor(conn):
    cursor = conn.cursor()
    cursor.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 7)
    return cursor


# ---------------------------------------------------------------- one trip


def test_select_is_probe_materialize_open(ready):
    system, conn, cur = ready
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    cur.execute("SELECT k FROM t WHERE k <= 3 ORDER BY k")
    assert cur.fetchall() == [(1,), (2,), (3,)]
    assert len(sent) == 3  # probe, materialise, open
    assert "(0 = 1)" in sent[0]
    script = sent[1]
    assert script.startswith("BEGIN TRANSACTION; DROP TABLE IF EXISTS phx_")
    assert "; DROP PROCEDURE IF EXISTS phx_" in script and "; EXEC phx_" in script
    assert script.endswith("; COMMIT")
    assert sent[2].startswith("SELECT * FROM phx_")
    assert system.server.database.wal.stats.forces == forces + 1


def test_close_drops_a_whole_session_in_one_trip_and_one_force(ready):
    system, conn, cur = ready
    cur.execute("CREATE TABLE #scratch (a INT)")
    cur.execute("CREATE PROCEDURE #p AS BEGIN SELECT count(*) FROM t END")
    for _ in range(4):
        cur.execute("SELECT k FROM t")
        cur.fetchall()
    assert len(built_for_statements(system)) == 10
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    conn.close()
    assert len(sent) == 1 and sent[0].count("DROP ") == 11  # + the status table
    assert system.server.database.wal.stats.forces == forces + 1
    assert phoenix_objects(system) == []


# ---------------------------------------------------------------- SQL errors


@pytest.mark.parametrize("key_cursor", [False, True], ids=["default", "keyset"])
def test_failed_fill_leaves_nothing_and_the_session_usable(ready, key_cursor):
    """The probe compiles (WHERE 0 = 1 evaluates nothing); the fill meets
    the zero divisor at run time, after its CREATE TABLE and CREATE
    PROCEDURE already executed."""
    system, conn, cur = ready
    cur.execute("UPDATE t SET v = 0 WHERE k = 9")
    failing = keyset_cursor(conn) if key_cursor else cur
    with pytest.raises(DataError):
        failing.execute("SELECT k FROM t WHERE 10 / v > 0")
    assert built_for_statements(system) == []  # rolled back as a unit
    # the private session's transaction was closed: the next script can BEGIN
    failing.execute("SELECT k FROM t WHERE k <= 2")
    assert failing.fetchall() == [(1,), (2,)]
    conn.close()
    assert phoenix_objects(system) == []


def test_failed_temp_object_create_closes_its_transaction(ready):
    system, conn, cur = ready
    with pytest.raises(CatalogError):
        cur.execute("CREATE TABLE #bad (a INT, a INT)")
    cur.execute("CREATE TABLE #good (a INT)")
    cur.execute("INSERT INTO #good VALUES (1)")
    cur.execute("SELECT a FROM #good")
    assert cur.fetchall() == [(1,)]
    conn.close()
    assert phoenix_objects(system) == []


def test_temp_object_inside_an_application_transaction_joins_it(ready):
    system, conn, cur = ready
    conn.begin()
    cur.execute("CREATE TABLE #mine (a INT)")
    cur.execute("INSERT INTO #mine VALUES (7)")
    conn.commit()
    cur.execute("SELECT a FROM #mine")
    assert cur.fetchall() == [(7,)]


# ---------------------------------------------------------------- crashes


@pytest.mark.parametrize("kind", [FaultKind.FORCE_FAIL, FaultKind.TORN_WAL_TAIL])
def test_kill_after_create_before_commit_leaves_no_object(ready, kind):
    """The script's only log append is the force at its COMMIT.  A device
    fault there kills the engine with CREATE TABLE, CREATE PROCEDURE and the
    fill executed but nothing (or a commit-less prefix) on the device:
    restart must come back with neither table nor procedure, and the retried
    statement must deliver its rows exactly once."""
    system, conn, cur = ready
    wal_stats = system.server.database.wal.stats  # one object across restarts
    forces_before = wal_stats.forces
    seen: list[tuple[int, list[str]]] = []

    def restart_and_look(_seconds):
        if not system.server.up:
            forces_at_kill = wal_stats.forces
            system.endpoint.restart_server()
            seen.append((forces_at_kill, built_for_statements(system)))

    conn.config.sleep = restart_and_look
    system.faults.schedule(kind, matcher=is_materialize_script)
    cur.execute("SELECT k FROM t ORDER BY k")
    assert [row[0] for row in cur.fetchall()] == list(range(1, 21))
    # one kill, before any force completed; restart found nothing half-built
    assert seen == [(forces_before, [])]
    assert conn.stats.recoveries == 1
    assert len(built_for_statements(system)) == 2  # the retry's table + procedure
    conn.close()
    assert phoenix_objects(system) == []


@pytest.mark.parametrize("key_cursor", [False, True], ids=["default", "keyset"])
def test_reply_lost_after_commit_is_rebuilt_not_duplicated(ready, key_cursor):
    system, conn, cur = ready
    system.faults.schedule(FaultKind.CRASH_AFTER_EXECUTE, matcher=is_materialize_script)
    cursor = keyset_cursor(conn) if key_cursor else cur
    cursor.execute("SELECT k, v FROM t WHERE k <= 15")
    rows = cursor.fetchall()
    assert sorted(rows) == [(i, i) for i in range(1, 16)]  # DROP-first retry: no doubles
    assert conn.stats.recoveries == 1
    assert len(built_for_statements(system)) == 2  # one table, one procedure
    conn.close()
    assert phoenix_objects(system) == []


def test_no_phoenix_object_survives_a_mixed_session(ready):
    """Successful, failed (SQL error) and crashed materialisations, then
    close(): the server holds no ``phx_*`` table or procedure."""
    system, conn, cur = ready
    cur.execute("UPDATE t SET v = 0 WHERE k = 4")
    cur.execute("SELECT k FROM t")
    cur.fetchall()
    with pytest.raises(DataError):
        cur.execute("SELECT k, 10 / v FROM t")
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, matcher=is_materialize_script)
    cur.execute("SELECT k FROM t WHERE k > 10")
    assert len(cur.fetchall()) == 10
    system.faults.schedule(FaultKind.CRASH_AFTER_EXECUTE, matcher=is_materialize_script)
    keys = keyset_cursor(conn)
    keys.execute("SELECT k FROM t WHERE k > 15")
    assert len(keys.fetchall()) == 5
    system.faults.schedule(FaultKind.FORCE_FAIL, matcher=is_materialize_script)
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (20,)
    conn.close()
    assert phoenix_objects(system) == []
