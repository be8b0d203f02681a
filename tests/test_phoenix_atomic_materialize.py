"""Phoenix persists only what the client does not hold, and everything it
builds on a statement's behalf is ONE transaction.

A default-result SELECT goes out as the plain stack sends it, asking for
one row more than a fetch block: when no more than a block comes back, that
is the whole result — no table, no transaction, no log force.  A larger
result is filled by the template's fill procedure (created by the first
execution, only called by later ones) whose query creates the result table
``INTO`` which it runs, and reads back the first block.  That fill, a key
cursor's materialisation (the same, capturing keys), redirected temp
objects (DROP + CREATE) and the clean-termination DROPs each travel as
``BEGIN TRANSACTION; ...; COMMIT`` in one request — so they cost one round
trip and one log force, and neither a SQL error nor a crash can leave a
half-built unit behind or hand the application a row twice.
"""

from __future__ import annotations

import copy

import pytest

from repro.core import interceptor
from repro.errors import CatalogError, DataError
from repro.net import FaultKind
from repro.net.protocol import ExecuteRequest
from repro.odbc.constants import DEFAULT_FETCH_BLOCK, CursorType, StatementAttr

#: the fixture cursor's fetch block: a result of three rows or more is
#: materialized through it
BLOCK = 2


@pytest.fixture()
def ready(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    cur.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, {i})" for i in range(1, 21)))
    cur.set_attr(StatementAttr.FETCH_BLOCK_SIZE, BLOCK)
    return system, phoenix_conn, cur


def crash_restart(system):
    system.server.crash()
    system.endpoint.restart_server()


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


def test_a_result_within_one_block_is_one_plain_request_and_no_force(ready):
    """The statement as the plain stack sends it — its text, the values
    beside it — capped at one row past the block: the reply holds the whole
    result, and the server keeps nothing of it."""
    system, conn, _cur = ready
    cur = conn.cursor()
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    for bound in (3, 5):
        cur.execute("SELECT k FROM t WHERE k <= ? ORDER BY k", [bound])
        assert cur.fetchall() == [(k,) for k in range(1, bound + 1)]
    assert sent == [f"SELECT k FROM t WHERE (k <= ?) ORDER BY k LIMIT {DEFAULT_FETCH_BLOCK + 1}"] * 2
    assert system.server.database.wal.stats.forces == forces
    assert built_for_statements(system) == [] and not conn.results
    assert conn.stats.queries_materialized == 0


@pytest.mark.parametrize("rows", [DEFAULT_FETCH_BLOCK, DEFAULT_FETCH_BLOCK + 1])
def test_one_fetch_block_is_where_materializing_starts(system, phoenix_conn, rows):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE wide (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO wide VALUES " + ", ".join(f"({k})" for k in range(200)))
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    cur.execute("SELECT k FROM wide WHERE k < ? ORDER BY k", [rows])
    assert cur.fetchall() == [(k,) for k in range(rows)]
    capped = f"SELECT k FROM wide WHERE (k < ?) ORDER BY k LIMIT {DEFAULT_FETCH_BLOCK + 1}"
    if rows <= DEFAULT_FETCH_BLOCK:
        assert sent == [capped]
        assert system.server.database.wal.stats.forces == forces
        assert built_for_statements(system) == []
    else:
        # the capped read, the fill, and the server cursor that ships the
        # rest over the result table
        (read, fill, open_rest) = sent
        assert read == capped and "; EXEC phx_" in fill
        assert open_rest.startswith(f"SELECT * FROM phx_c{phoenix_conn.names.client_id}_t")
        assert system.server.database.wal.stats.forces == forces + 1
        assert len(built_for_statements(system)) == 2  # the table, the procedure
        assert cur._state.shipped == rows and not phoenix_conn.results  # drained


def test_a_fill_reply_carries_at_most_one_block(ready, monkeypatch):
    system, conn, cur = ready
    replies = []
    driver_connection = type(conn.app)
    original = driver_connection.execute

    def recording(self, sql, **kwargs):
        response = original(self, sql, **kwargs)
        if "EXEC phx_" in sql:
            replies.append(len(response.rows))
        return response

    monkeypatch.setattr(driver_connection, "execute", recording)
    cur.execute("SELECT k FROM t ORDER BY k")
    assert cur.fetchall() == [(k,) for k in range(1, 21)]
    assert replies == [BLOCK]


def test_select_is_one_request_and_one_force(ready):
    """A result above one block is filled by ONE request, one force."""
    system, conn, cur = ready
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    cur.execute("SELECT k FROM t WHERE k <= 3 ORDER BY k")
    read, script = sent  # the capped read; no probe, and no open yet
    assert read == f"SELECT k FROM t WHERE (k <= 3) ORDER BY k LIMIT {BLOCK + 1}"
    proc = f"phx_c{conn.names.client_id}_q1"
    # the procedure's query builds the table it fills and reads back one
    # block; no client-written DDL
    assert script == (
        f"BEGIN TRANSACTION; DROP PROCEDURE IF EXISTS {proc}; "
        f"CREATE PROCEDURE {proc} (@t) AS BEGIN "
        "SELECT k INTO @t FROM t WHERE (k <= 3) ORDER BY k; "
        f"SELECT * FROM @t LIMIT {BLOCK} END; "
        f"EXEC {proc} ?; COMMIT"
    )
    assert system.server.database.wal.stats.forces == forces + 1
    assert cur.fetchall() == [(1,), (2,), (3,)]
    # every later execution: a constant text, the table name beside it
    del sent[:]
    cur.execute("SELECT k FROM t WHERE k <= 3 ORDER BY k")
    assert sent == [read, f"BEGIN TRANSACTION; EXEC {proc} ?; COMMIT"]
    assert cur.fetchall() == [(1,), (2,), (3,)]
    assert system.server.database.wal.stats.forces == forces + 2
    assert sorted(system.server.database.procedures) == [proc]


# ---------------------------------------------------------------- one parse


def test_repeated_select_parses_nothing_on_either_side(ready, parsed_texts):
    system, conn, cur = ready
    metrics = system.server.engine_metrics

    def third_execution(cursor, text, values, answer):
        """(parse hits, plan hits) of the third execution of ``text``."""
        cursor.execute(text, values)  # the first: parsed on both sides
        cursor.fetchall()
        cursor.execute(text, values)
        assert cursor.fetchall() == answer
        before = metrics.snapshot()
        compiled = system.server.executor_stats.compiled_plans
        del parsed_texts[:]
        cursor.execute(text, values)
        assert parsed_texts == []  # a template and texts already seen
        after = metrics.snapshot()
        assert after["parse_misses"] == before["parse_misses"]
        assert after["plan_misses"] == before["plan_misses"]
        assert system.server.executor_stats.compiled_plans == compiled
        assert cursor.fetchall() == answer
        return after["parse_hits"] - before["parse_hits"], after["plan_hits"] - before["plan_hits"]

    # within one block: the query's text and plan
    assert third_execution(conn.cursor(), "SELECT v FROM t WHERE k = ?", [4], [(4,)]) == (1, 1)
    # above it: the capped read's, then the fill script's text (the stored
    # procedure is held parsed) with the fill's and the read-back's plans
    answer = [(v,) for v in range(1, 6)]
    assert third_execution(cur, "SELECT v FROM t WHERE k <= ? ORDER BY k", [5], answer) == (2, 3)


def test_repeated_wrapped_dml_is_parsed_on_neither_side(ready, parsed_texts):
    """The values and the sequence number travel beside the wrapper, so the
    wrapper is one text per template and session: the server parses it once."""
    system, conn, cur = ready
    text = "UPDATE t SET v = v + ? WHERE k = ?"
    cur.execute(text, [100, 4])
    (script,) = [t for t in parsed_texts if t.startswith("BEGIN")]
    assert script.startswith("BEGIN TRANSACTION; UPDATE t SET v = (v + ?) WHERE (k = ?); ")
    assert script.endswith("VALUES (?, rowcount()); COMMIT")
    del parsed_texts[:]
    cur.execute(text, [100, 7])
    assert cur.rowcount == 1
    assert parsed_texts == []
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
    assert len(parsed_texts) == 1 + 1  # + the wrapper, once for the batch, server-side
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
        text: [t.stmt.sql() for t in interceptor.statement_templates(text)]
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
        assert [t.stmt.sql() for t in templates] == rendered
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
    # the server builds the keys table from the key query it runs
    assert "CREATE TABLE" not in sent[1] and "SELECT k INTO @t FROM t" in sent[1]
    assert system.server.database.wal.stats.forces == forces + 1
    assert sorted(cursor.fetchall()) == [(1, 1), (2, 2), (3, 3)]


def test_close_drops_a_whole_session_in_one_trip_and_one_force(ready):
    system, conn, cur = ready
    cur.execute("CREATE TABLE #scratch (a INT)")
    cur.execute("CREATE PROCEDURE #p AS BEGIN SELECT count(*) FROM t END")
    for _ in range(4):
        cur.execute("SELECT k FROM t")
        cur.fetchall()
    # four result tables, ONE procedure for the one template, #scratch, #p
    assert len(built_for_statements(system)) == 7
    sent = record_execute_sql(system)
    forces = system.server.database.wal.stats.forces
    conn.close()
    assert len(sent) == 1 and sent[0].count("DROP ") == 8  # + the status table
    assert system.server.database.wal.stats.forces == forces + 1
    assert phoenix_objects(system) == []


# ---------------------------------------------------------------- SQL errors


@pytest.mark.parametrize("key_cursor", [False, True], ids=["default", "keyset"])
def test_failed_fill_leaves_nothing_and_the_session_usable(ready, key_cursor):
    """A key cursor's fill meets the zero divisor at run time, after the
    script's CREATE PROCEDURE executed (its WHERE 0 = 1 probe compiled
    without evaluating anything); a default result meets it in the plain
    read that comes before any fill."""
    system, conn, cur = ready
    cur.execute("UPDATE t SET v = 0 WHERE k = 9")
    failing = keyset_cursor(conn) if key_cursor else cur
    with pytest.raises(DataError):
        failing.execute("SELECT k FROM t WHERE 10 / v > 0")
    assert built_for_statements(system) == []  # rolled back as a unit
    # the failed script's transaction was closed: the next script can BEGIN
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
    assert sorted(rows) == [(i, i) for i in range(1, 16)]  # the retry's own table: no doubles
    assert conn.stats.recoveries == 1
    if not key_cursor:
        # registered only after the retried script's rows arrived: nothing
        # for that recovery to reposition, every row shipped once since
        assert cursor._state.shipped == 15
    # one procedure (the re-sent script dropped and re-created it), the
    # table delivered from, and the table of the request whose reply was
    # lost — it waits for close() like every other
    built = built_for_statements(system)
    assert len(built) == 3 and sum("_q" in name for name in built) == 1
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
    cur.execute("SELECT k, v FROM t WHERE k > 17")
    assert len(cur.fetchall()) == 3
    conn.close()
    assert phoenix_objects(system) == []


def test_crash_before_the_first_fetch_repositions_past_the_buffer(ready):
    """The fill's first block sits in the client buffer and stays there; a
    crash before the application fetched any re-attaches the rest through a
    server cursor on the app connection over the persistent table, advanced
    past the rows the client holds."""
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    crash_restart(system)
    conn.cursor().execute("SELECT count(*) FROM t")  # any round trip recovers
    state = cur._state
    assert state.shipped == BLOCK and cur._buffer == [(1,), (2,)]
    assert state.cursor_id in system.server.sessions[conn.app.session_id].cursors
    assert [row[0] for row in cur.fetchmany(5)] == [1, 2, 3, 4, 5]
    assert [row[0] for row in cur.fetchall()] == list(range(6, 21))
    assert conn.stats.recoveries == 1


def test_crash_after_a_small_reply_costs_that_result_nothing(ready):
    """A result the reply carried whole is the client's: a crash before the
    application drained it sends nothing on its behalf — no re-send, no
    verification, no repositioning — and every row arrives once."""
    system, conn, _cur = ready
    cur = conn.cursor()
    cur.execute("SELECT k FROM t ORDER BY k")
    first = cur.fetchmany(5)
    crash_restart(system)
    before = system.faults.requests_seen
    rest = cur.fetchall()
    assert system.faults.requests_seen == before
    assert [k for (k,) in first + rest] == list(range(1, 21))
    sent = record_execute_sql(system)
    conn.cursor().execute("SELECT count(*) FROM t")  # the next request recovers
    assert conn.stats.recoveries == 1
    assert not [sql for sql in sent if "phx_c" in sql and "_status" not in sql]


def test_a_lost_small_reply_is_re_run(ready):
    """CRASH_AFTER_EXECUTE on a small SELECT's own text: the application saw
    nothing of the lost reply, so the statement simply runs again — and no
    ``phx_`` table is built for it."""
    system, conn, _cur = ready
    cur = conn.cursor()
    sent = record_execute_sql(system)
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "FROM t WHERE (k <= ?)")
    cur.execute("SELECT k, v FROM t WHERE k <= ?", [5])
    assert cur.fetchall() == [(k, k) for k in range(1, 6)]
    assert conn.stats.recoveries == 1
    assert sent.count(f"SELECT k, v FROM t WHERE (k <= ?) LIMIT {DEFAULT_FETCH_BLOCK + 1}") == 2
    assert built_for_statements(system) == []


# ---------------------------------------------------------------- a template's life
#
# The fill procedure of a statement template is created by the request that
# first calls it and counts as created once that request is acknowledged;
# until then every (re-)sent request drops and re-creates it.  From then on
# the request is the bare EXEC, and each attempt fills a table of its own.

TEMPLATE = "SELECT k, v FROM t WHERE k <= ? ORDER BY k"


def procedures(system) -> list[str]:
    return [name for name in phoenix_objects(system) if "_q" in name]


@pytest.mark.parametrize(
    "kind",
    [FaultKind.CRASH_BEFORE_EXECUTE, FaultKind.CRASH_AFTER_EXECUTE, FaultKind.FORCE_FAIL],
    ids=["before the commit", "after the commit", "at the commit's force"],
)
def test_crash_around_the_creating_script_leaves_exactly_one_procedure(ready, kind):
    system, conn, cur = ready
    sent = record_execute_sql(system)
    system.faults.schedule(kind, matcher=is_materialize_script)
    cur.execute(TEMPLATE, [3])
    assert cur.fetchall() == [(1, 1), (2, 2), (3, 3)]
    assert conn.stats.recoveries == 1
    creating = [sql for sql in sent if "CREATE PROCEDURE" in sql]
    # never acknowledged, so sent again whole: it drops what may have landed
    assert len(creating) == 2 and creating[0] == creating[1]
    assert "; DROP PROCEDURE IF EXISTS phx_" in creating[0]
    (procedure,) = procedures(system)
    del sent[:]
    cur.execute(TEMPLATE, [4])  # acknowledged now: only called
    assert cur.fetchall() == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert [sql for sql in sent if "EXEC" in sql] == [
        f"BEGIN TRANSACTION; EXEC {procedure} ?, ?; COMMIT"
    ]
    assert procedures(system) == [procedure]
    conn.close()
    assert phoenix_objects(system) == []


def test_reply_lost_after_an_exec_only_script_committed(ready):
    """The re-sent script meets the table its lost predecessor committed —
    and does not: each attempt names a new one."""
    system, conn, cur = ready
    cur.execute(TEMPLATE, [3])
    cur.fetchall()
    sent = record_execute_sql(system)
    system.faults.schedule(FaultKind.CRASH_AFTER_EXECUTE, matcher=is_materialize_script)
    cur.execute(TEMPLATE, [4])
    assert cur.fetchall() == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert conn.stats.recoveries == 1
    scripts = [sql for sql in sent if "EXEC phx_" in sql]
    assert len(scripts) == 2 and scripts[0] == scripts[1]  # the constant text, twice
    assert "CREATE PROCEDURE" not in scripts[0]
    assert len(procedures(system)) == 1
    tables = [name for name in built_for_statements(system) if "_t" in name]
    assert len(tables) == 3  # the first SELECT's, the lost reply's, the delivered one
    assert cur._state.table == max(tables, key=lambda name: int(name.rpartition("_t")[2]))
    conn.close()
    assert phoenix_objects(system) == []


def test_crash_between_creation_and_the_second_execution(ready, parsed_texts):
    """The procedure is as durable as the result tables; what the crash
    takes is the server's caches."""
    system, conn, cur = ready
    cur.execute(TEMPLATE, [3])
    assert cur.fetchall() == [(1, 1), (2, 2), (3, 3)]
    (procedure,) = procedures(system)
    crash_restart(system)
    assert procedures(system) == [procedure]
    sent = record_execute_sql(system)
    compiled = system.server.executor_stats.compiled_plans
    del parsed_texts[:]
    cur.execute(TEMPLATE, [4])  # the capped read finds the server gone
    assert cur.fetchall() == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert conn.stats.recoveries == 1
    # no verification request for the procedure, and it is not re-created
    assert [sql for sql in sent if procedure in sql] == [
        f"BEGIN TRANSACTION; EXEC {procedure} ?, ?; COMMIT"
    ]
    # cold: the script and the stored text are parsed, both plans compiled
    assert f"BEGIN TRANSACTION; EXEC {procedure} ?, ?; COMMIT" in parsed_texts
    assert any(text.startswith(f"CREATE PROCEDURE {procedure} ") for text in parsed_texts)
    assert system.server.executor_stats.compiled_plans >= compiled + 2
    conn.close()
    assert phoenix_objects(system) == []


def test_dropped_channel_under_a_fill_keeps_the_procedure(ready):
    """The server never went away: the rebuilt session (cold caches of its
    own) calls the procedure the old one created."""
    system, conn, cur = ready
    cur.execute(TEMPLATE, [3])
    cur.fetchall()
    cur.execute(TEMPLATE, [3])
    cur.fetchall()
    session = conn.app.session_id
    sent = record_execute_sql(system)
    system.faults.schedule(FaultKind.DROP_CONNECTION, matcher=is_materialize_script)
    metrics = system.server.engine_metrics
    misses = metrics.plan_misses
    cur.execute(TEMPLATE, [3])
    assert (conn.stats.recoveries, conn.stats.spurious_timeouts) == (1, 0)
    assert conn.app.session_id != session
    assert not any("CREATE PROCEDURE" in sql for sql in sent)
    # the new session compiles both of the procedure's plans once
    assert (metrics.plan_misses, metrics.plan_invalidations) == (misses + 2, 0)
    assert cur.fetchall() == [(1, 1), (2, 2), (3, 3)]
    assert len(procedures(system)) == 1
    conn.close()
    assert phoenix_objects(system) == []
    assert len(system.server.sessions) == 0


def test_description_comes_from_each_executions_reply(ready):
    """Never from a memo beside the procedure: the application re-created
    the table between two executions of one text."""
    system, conn, cur = ready
    text = "SELECT * FROM t WHERE k <= ?"
    cur.execute(text, [3])
    assert [d[0] for d in cur.description] == ["k", "v"]
    assert cur.fetchall() == [(1, 1), (2, 2), (3, 3)]
    cur.execute("DROP TABLE t")
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, name VARCHAR(10), v FLOAT)")
    cur.execute("INSERT INTO t VALUES (1, 'one', 1.5), (2, 'two', 2.5), (3, 'three', 3.5)")
    cur.execute(text, [3])
    assert [d[0] for d in cur.description] == ["k", "name", "v"]
    assert (cur.description, cur.fetchall()) == plain_answer(system, "SELECT * FROM t WHERE k <= 3")
    assert len(procedures(system)) == 1


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
    """The application sees the plain stack's ``description`` and rows
    whichever way its result travels: whole, in the reply of the statement
    the plain stack sends, or — above one fetch block — through a result
    table the server derives from whatever query runs (duplicate or unnamed
    outputs, a join's ``*``, a UNION, a read of the past, a view created by
    the same script), filled by one request."""
    system, conn, cur = ready
    pinned = system.server.time_travel.clock.now()
    cur.execute("UPDATE t SET v = v + 100 WHERE k <= 2")
    sql = PARITY_CASES[case].format(pinned=pinned)
    expected = plain_answer(system, sql)
    assert expected[0] is not None
    if case == "as-of":
        assert expected[1] == [(1, 1), (2, 2), (3, 3)]  # before the UPDATE above
    for block in (DEFAULT_FETCH_BLOCK, 1):
        cursor = conn.cursor()
        cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, block)
        sent = record_execute_sql(system)
        cursor.execute(sql)
        assert (cursor.description, cursor.fetchall()) == expected
        fills = [text for text in sent if "; EXEC phx_" in text]
        assert len(fills) == (len(expected[1]) > block)
        assert not any("(0 = 1)" in text for text in sent)
        system.faults.cancel_all()
    conn.close()
    assert phoenix_objects(system) == []
