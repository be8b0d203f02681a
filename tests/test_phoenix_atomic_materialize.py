"""Everything Phoenix builds on a statement's behalf is ONE transaction.

A default-result SELECT (fill procedure whose query creates the result
table ``INTO`` which it runs, EXEC, and the read-back of the rows), a key
cursor's materialisation (DDL + fill procedure + EXEC + key count),
redirected temp objects (DROP + CREATE) and the clean-termination DROPs each
travel as ``BEGIN TRANSACTION; ...; COMMIT`` in one request — so they cost
one round trip and one log force, and neither a SQL error nor a crash can
leave a half-built unit behind or hand the application a row twice.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import interceptor
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


def test_select_is_one_request_and_one_force(ready):
    system, conn, cur = ready
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    cur.execute("SELECT k FROM t WHERE k <= 3 ORDER BY k")
    assert cur.fetchall() == [(1,), (2,), (3,)]
    (script,) = sent  # no probe before it, no open after it
    assert script.startswith("BEGIN TRANSACTION; DROP TABLE IF EXISTS phx_")
    assert "; DROP PROCEDURE IF EXISTS phx_" in script
    # the procedure's query builds the table it fills; no client-written DDL
    assert "AS BEGIN SELECT k INTO phx_" in script and "CREATE TABLE" not in script
    assert "; EXEC phx_" in script
    assert script.endswith("_res_3; COMMIT") and "; SELECT * FROM phx_" in script
    assert system.server.database.wal.stats.forces == forces + 1


# ---------------------------------------------------------------- one parse


def test_repeated_select_is_no_client_parse_one_server_parse_none_at_exec(ready, parsed_texts):
    system, conn, cur = ready
    text = "SELECT v FROM t WHERE k = ?"
    cur.execute(text, [4])
    assert cur.fetchall() == [(4,)]
    del parsed_texts[:]
    cur.execute(text, [7])  # was: the text, the script, the stored procedure
    assert cur.fetchall() == [(7,)]
    (script,) = parsed_texts
    assert script.startswith("BEGIN TRANSACTION; DROP TABLE IF EXISTS phx_")
    assert "WHERE (k = 7)" in script and "; EXEC phx_" in script


def test_repeated_wrapped_dml_is_no_client_parse_one_server_parse(ready, parsed_texts):
    system, conn, cur = ready
    text = "UPDATE t SET v = v + ? WHERE k = ?"
    cur.execute(text, [100, 4])
    del parsed_texts[:]
    cur.execute(text, [100, 7])
    assert cur.rowcount == 1
    (script,) = parsed_texts
    assert script.startswith("BEGIN TRANSACTION; UPDATE t SET v = (v + 100) WHERE (k = 7); ")
    cur.execute("SELECT k FROM t WHERE v > 100 ORDER BY k")
    assert cur.fetchall() == [(4,), (7,)]


def test_executemany_parses_its_text_once_and_deep_copies_nothing(ready, parsed_texts, monkeypatch):
    system, conn, cur = ready
    copies = []
    original = copy.deepcopy
    monkeypatch.setattr(copy, "deepcopy", lambda *a, **k: copies.append(a) or original(*a, **k))
    interceptor._templates.clear()
    text = "INSERT INTO t VALUES (?, ?)"
    cur.set_attr(StatementAttr.BATCH_SIZE, 16)
    cur.executemany(text, [[100 + i, i] for i in range(16)])
    assert cur.rowcount == 16
    assert parsed_texts.count(text) == 1
    assert len(parsed_texts) == 1 + 16  # + one wrapped script per row, server-side
    assert copies == []
    cur.execute("SELECT count(*) FROM t WHERE k >= 100")
    assert cur.fetchall() == [(16,)]


def test_cached_templates_are_never_modified(ready):
    """Binding and temp-table redirection build new trees: the process-wide
    templates read the same before and after, whatever was executed."""
    system, conn, cur = ready
    plain = "SELECT v FROM t WHERE k = ?"
    temp = "SELECT n FROM #t WHERE n > ? ORDER BY n"
    create = "CREATE TABLE #t (n INT PRIMARY KEY)"
    cur.execute(plain, [3])
    assert cur.fetchall() == [(3,)]
    cur.execute(create)
    cur.execute("INSERT INTO #t VALUES (1), (2), (3)")
    before = {
        text: [stmt.sql() for stmt, _kind in interceptor.statement_templates(text)]
        for text in (plain, temp, create)
    }
    cur.execute(temp, [1])
    assert cur.fetchall() == [(2,), (3,)]
    cur.execute(temp, [2])
    assert cur.fetchall() == [(3,)]
    cur.execute(plain, [5])  # redirection is on now: a copy is rewritten
    assert cur.fetchall() == [(5,)]
    for text, rendered in before.items():
        templates = interceptor.statement_templates(text)
        assert templates is interceptor.statement_templates(text)  # cached
        assert [stmt.sql() for stmt, _kind in templates] == rendered
    assert before[temp] == ["SELECT n FROM #t WHERE (n > ?) ORDER BY n"]
    assert before[create] == ["CREATE TABLE #t (n INT NOT NULL PRIMARY KEY)"]  # still #t
    # a second session redirects the same template to its own name
    other = system.phoenix.connect(system.DSN)
    try:
        other_cur = other.cursor()
        other_cur.execute(create)
        other_cur.execute(temp, [0])
        assert other_cur.fetchall() == []
    finally:
        other.close()


def test_key_cursor_still_probes_then_materializes_in_one_request(ready):
    system, conn, _cur = ready
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    cursor = keyset_cursor(conn)
    cursor.execute("SELECT k, v FROM t WHERE k <= 3")
    assert len(sent) == 2 and "(0 = 1)" in sent[0]
    assert sent[1].startswith("BEGIN TRANSACTION") and "; EXEC phx_" in sent[1]
    assert "CREATE TABLE phx_" in sent[1]  # the client describes the keys table
    assert system.server.database.wal.stats.forces == forces + 1
    assert sorted(cursor.fetchall()) == [(1, 1), (2, 2), (3, 3)]


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
    """The fill meets the zero divisor at run time, after the script's
    CREATE PROCEDURE (and, for a key cursor, whose WHERE 0 = 1 probe
    compiled without evaluating anything, its CREATE TABLE) executed."""
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
    restart must come back with neither table nor procedure, no row of the
    uncommitted table may have reached the application, and the retried
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
            # the SELECT * inside the killed script ran, its reply never left
            assert cur._buffer == [] and not conn.results

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
    if not key_cursor:
        # registered only after the retried script's rows arrived: an ordinary
        # buffered default result, nothing for that recovery to reposition
        assert cursor._state.mode == "buffered" and cursor._state.delivered == 15
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


def test_crash_before_the_first_fetch_repositions_at_zero(ready):
    """The rows of the one request sit in the client buffer; a crash before
    the application fetched any re-attaches delivery at row 0 through a
    server cursor on the app connection, over the persistent table."""
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    system.server.crash()
    system.endpoint.restart_server()
    conn.cursor().execute("SELECT count(*) FROM t")  # any round trip recovers
    state = cur._state
    assert (state.mode, state.delivered) == ("server_cursor", 0)
    assert state.cursor_id in system.server.sessions[conn.app.session_id].cursors
    assert [row[0] for row in cur.fetchmany(5)] == [1, 2, 3, 4, 5]
    assert [row[0] for row in cur.fetchall()] == list(range(6, 21))
    assert conn.stats.recoveries == 1


# ---------------------------------------------------------------- any query


def plain_answer(system, sql: str):
    conn = system.plain.connect(system.DSN)
    try:
        cur = conn.cursor()
        cur.execute(sql)
        return cur.description, cur.fetchall()
    finally:
        conn.close()


#: ``{pinned}`` is a timestamp taken before the test's UPDATE
PARITY_CASES = {
    "alias-clash": "SELECT count(*) AS count_2, count(*), count(*) FROM t",
    "join-star": "SELECT * FROM t x JOIN t y ON x.k = y.k WHERE x.k <= 3 ORDER BY x.k",
    "unnamed": "SELECT 1, 1, k + 1, k + 1 FROM t WHERE k = 1",
    "union": "SELECT k FROM t WHERE k <= 2 UNION SELECT v FROM t WHERE k > 18 ORDER BY 1",
    "union-all": "SELECT k, v FROM t WHERE k = 1 UNION ALL SELECT k, v FROM t WHERE k = 1",
    "as-of": "SELECT k, v FROM t WHERE k <= 3 ORDER BY k AS OF {pinned!r}",
    "union-as-of": (
        "SELECT v FROM t WHERE k = 1 UNION SELECT v FROM t WHERE k = 2 "
        "ORDER BY 1 AS OF {pinned!r}"
    ),
    # TPC-H Q15's shape: the script creates the view its query reads
    "view-script": (
        "CREATE VIEW top_v AS SELECT k AS vk, sum(v) AS total FROM t GROUP BY k; "
        "SELECT vk, total FROM top_v WHERE total = (SELECT max(total) FROM top_v); "
        "DROP VIEW top_v"
    ),
    "empty": "SELECT k, v AS k FROM t WHERE k < 0",
}


@pytest.mark.parametrize("case", PARITY_CASES)
def test_description_and_rows_equal_the_plain_stack(ready, case):
    """The result table is derived on the server from whatever query runs —
    duplicate or unnamed outputs, a join's ``*``, a UNION, a read of the
    past, a view created by the same script — and the application sees the
    plain stack's ``description`` and rows, from one request per SELECT."""
    system, conn, cur = ready
    pinned = system.server.time_travel.clock.now()
    cur.execute("UPDATE t SET v = v + 100 WHERE k <= 2")
    sql = PARITY_CASES[case].format(pinned=pinned)
    expected = plain_answer(system, sql)
    assert expected[0] is not None
    if case == "as-of":
        assert expected[1] == [(1, 1), (2, 2), (3, 3)]  # before the UPDATE above
    sent = record_execute_sql(system)
    cur.execute(sql)
    assert (cur.description, cur.fetchall()) == expected
    materialized = [sql for sql in sent if "; EXEC phx_" in sql and "_fill_" in sql]
    assert len(materialized) == 1 and not any("(0 = 1)" in sql for sql in sent)
    conn.close()
    assert phoenix_objects(system) == []
