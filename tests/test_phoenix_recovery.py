"""Phoenix/ODBC under failures: the paper's core claims.

Every test crashes the server at a specific point and asserts the
application observes nothing but latency — results complete and exact,
DML applied exactly once, session context reinstalled.
"""

from __future__ import annotations

import pytest

from repro.core import recovery
from repro.errors import CommunicationError, RecoveryError
from repro.net import FaultKind
from repro.odbc.constants import DEFAULT_FETCH_BLOCK, CursorType, StatementAttr


#: the fetch block of the fixture's cursor: its 50-row results are
#: materialized, one block shipped at a time
BLOCK = 10


def blocked_cursor(conn):
    cursor = conn.cursor()
    cursor.set_attr(StatementAttr.FETCH_BLOCK_SIZE, BLOCK)
    return cursor


@pytest.fixture()
def ready(system, phoenix_conn):
    cur = blocked_cursor(phoenix_conn)
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
    cur.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i}, 'v{i}')" for i in range(1, 51))
    )
    return system, phoenix_conn, cur


def crash_restart(system):
    system.server.crash()
    system.endpoint.restart_server()


# ------------------------------------------------------------------ queries

def test_crash_between_statements_is_invisible(ready):
    system, conn, cur = ready
    crash_restart(system)
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (50,)
    assert conn.stats.recoveries == 1


def test_crash_during_metadata_probe(ready):
    system, conn, cur = ready
    # only a key cursor still probes: its materialising reply describes the
    # captured keys, not the application's columns
    cur.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    system.faults.schedule_on_sql(FaultKind.CRASH_BEFORE_EXECUTE, "(0 = 1)")
    cur.execute("SELECT k, v FROM t ORDER BY k")
    assert len(cur.fetchall()) == 50
    assert conn.stats.recoveries == 1


def test_crash_during_materialization_fill(ready):
    system, conn, cur = ready
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "EXEC phx_")
    cur.execute("SELECT k FROM t ORDER BY k")
    rows = cur.fetchall()
    assert [r[0] for r in rows] == list(range(1, 51))  # no duplicates from refill


def test_crash_during_delivery_open(ready):
    """The only ``SELECT * FROM phx_...`` request left is recovery's own
    re-open of an interrupted delivery: a second crash on it restarts the
    recovery, and the rows still arrive once each."""
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    rows = cur.fetchmany(20)
    crash_restart(system)
    system.faults.schedule(
        FaultKind.CRASH_AFTER_EXECUTE,
        matcher=lambda r: getattr(r, "sql", "").startswith("SELECT * FROM phx_"),
    )
    conn.cursor().execute("SELECT count(*) FROM t")  # any round trip recovers
    rows += cur.fetchall()
    assert [r[0] for r in rows] == list(range(1, 51))
    assert system.server.stats.crashes == 2


def test_open_results_of_one_template_recover_side_by_side(ready):
    """One procedure, a table per execution: two deliveries of the same
    text, interrupted mid-result, each resume at their own row — and the
    next execution of the text after the crash still only calls the
    procedure."""
    system, conn, cur = ready
    text = "SELECT k FROM t WHERE k > ? ORDER BY k"
    other = blocked_cursor(conn)
    cur.execute(text, [0])
    other.execute(text, [35])
    first, second = cur.fetchmany(17), other.fetchmany(3)
    procedures = sorted(system.server.database.procedures)
    assert len(procedures) == 1 and len(conn.results) == 2
    crash_restart(system)
    third = blocked_cursor(conn)
    third.execute(text, [30])  # recovers; EXEC-only against cold caches
    assert [r[0] for r in third.fetchall()] == list(range(31, 51))
    assert conn.stats.recoveries == 1
    assert sorted(system.server.database.procedures) == procedures
    assert [r[0] for r in first + cur.fetchall()] == list(range(1, 51))
    assert [r[0] for r in second + other.fetchall()] == list(range(36, 51))


def test_mid_fetch_crash_resumes_at_exact_position(ready):
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    first = cur.fetchmany(20)
    crash_restart(system)
    # any server interaction triggers recovery; then the open result is
    # repositioned at delivered=20
    conn.cursor().execute("SELECT 1")
    rest = cur.fetchall()
    assert [r[0] for r in first + rest] == list(range(1, 51))


def test_double_crash_during_one_result(ready):
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    got = cur.fetchmany(10)
    crash_restart(system)
    conn.cursor().execute("SELECT 1")
    got += cur.fetchmany(10)
    crash_restart(system)
    conn.cursor().execute("SELECT 1")
    got += cur.fetchall()
    assert [r[0] for r in got] == list(range(1, 51))
    assert conn.stats.recoveries == 2


def test_a_large_result_crashed_mid_delivery_delivers_every_row_once(system, phoenix_conn):
    """300 rows, three fetch blocks: the fill ships the first, a server
    cursor over the result table the others.  A crash after the first block
    and another after a block the cursor shipped each cost a re-open at the
    rows shipped; what the client holds stays in its buffer."""
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE big (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO big VALUES " + ", ".join(f"({k})" for k in range(300)))
    cur.execute("SELECT k FROM big ORDER BY k")
    got = cur.fetchmany(DEFAULT_FETCH_BLOCK)  # the fill's reply
    crash_restart(system)
    got += cur.fetchmany(60)  # the block fetch recovers: re-opened at row 100
    assert (phoenix_conn.stats.recoveries, cur._state.shipped) == (1, 200)
    crash_restart(system)  # 40 rows in the client's buffer, 100 on the server
    got += cur.fetchall()
    assert [k for (k,) in got] == list(range(300))
    assert (phoenix_conn.stats.recoveries, cur._state.shipped) == (2, 300)


def test_crash_while_recovering_is_survived(ready):
    system, conn, cur = ready
    cur.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur.execute("SELECT k FROM t ORDER BY k")
    cur.fetchmany(5)
    crash_restart(system)
    # arm a second crash that fires during recovery's verification phase:
    # the probe of the key cursor's table
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "count(*) FROM phx_")
    conn.cursor().execute("SELECT 1")
    assert len(cur.fetchall()) == 45
    assert system.faults.fired == [FaultKind.CRASH_AFTER_EXECUTE]
    assert conn.stats.recoveries >= 1


def test_recovery_verifies_materialized_state(ready):
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    state = cur._state
    # sabotage: drop the materialized table behind Phoenix's back, then crash
    vandal = system.server.connect()
    system.server.execute(vandal, f"DROP TABLE {state.table}")
    crash_restart(system)
    with pytest.raises(RecoveryError):
        conn.recovery.recover(CommunicationError("test"))


@pytest.mark.parametrize(
    "cursor_type", [CursorType.FORWARD_ONLY, CursorType.KEYSET], ids=["default", "keyset"]
)
def test_a_result_table_dropped_across_a_crash_raises_recovery_error(ready, cursor_type):
    """The rows a lost table held cannot be delivered: the application's
    next request recovers and learns it as RecoveryError — from the re-open
    of a default result, from the probe of a key cursor's table."""
    system, conn, cur = ready
    cur.set_attr(StatementAttr.CURSOR_TYPE, cursor_type)
    cur.execute("SELECT k FROM t ORDER BY k")
    assert len(cur.fetchmany(BLOCK)) == BLOCK
    vandal = system.server.connect()
    system.server.execute(vandal, f"DROP TABLE {cur._state.table}")
    crash_restart(system)
    with pytest.raises(RecoveryError):
        conn.cursor().execute("SELECT count(*) FROM t")


def test_phase_two_opening_a_default_result_is_its_verification(ready):
    """One pass over the open results: a default result is re-opened at the
    rows it shipped, with no ``count(*)`` probe of its table before it."""
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    first = cur.fetchmany(15)
    table = cur._state.table
    crash_restart(system)
    sent: list[str] = []
    system.faults.schedule(
        FaultKind.HANG,
        matcher=lambda request: sent.append(getattr(request, "sql", "")),  # never fires
        repeat=True,
    )
    conn.cursor().execute("SELECT count(*) FROM t")  # recovers
    assert [sql for sql in sent if table in sql] == [f"SELECT * FROM {table}"]
    assert [k for (k,) in first + cur.fetchall()] == list(range(1, 51))


# ------------------------------------------------------------------ session context

def test_options_replayed_in_order(ready):
    system, conn, cur = ready
    cur.execute("SET a 1")
    cur.execute("SET b 2")
    crash_restart(system)
    cur.execute("SELECT 1")  # trigger recovery
    app_session = system.server.sessions[conn.app.session_id]
    assert app_session.options["a"] == 1
    assert app_session.options["b"] == 2


def test_proxy_recreated_after_recovery(ready):
    system, conn, cur = ready
    crash_restart(system)
    cur.execute("SELECT 1")
    app_session = system.server.sessions[conn.app.session_id]
    assert "#phx_proxy" in app_session.temp_tables


def test_temp_table_survives_crash(ready):
    system, conn, cur = ready
    cur.execute("CREATE TABLE #w (x INT)")
    cur.execute("INSERT INTO #w VALUES (7)")
    crash_restart(system)
    cur.execute("SELECT x FROM #w")
    assert cur.fetchone() == (7,)


def test_temp_procedure_survives_crash(ready):
    system, conn, cur = ready
    cur.execute("CREATE TABLE #w (x INT)")
    cur.execute("CREATE PROCEDURE #p AS INSERT INTO #w VALUES (9)")
    crash_restart(system)
    cur.execute("EXEC #p")
    cur.execute("SELECT x FROM #w")
    assert cur.fetchone() == (9,)


# ------------------------------------------------------------------ failure detection

def test_spurious_timeout_retries_without_recovery(ready):
    system, conn, cur = ready
    system.faults.schedule_on_sql(FaultKind.HANG, "count(*)")
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (50,)
    assert conn.stats.spurious_timeouts == 1
    assert conn.stats.recoveries == 0


def test_dropped_connection_without_crash_rebuilds_session(ready):
    system, conn, cur = ready
    system.faults.schedule_on_sql(FaultKind.DROP_CONNECTION, "SET lock_timeout")
    cur.execute("SET lock_timeout 50")  # travels on the app connection
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (50,)
    # server never died, but the session had to be rebuilt
    assert system.server.stats.crashes == 0
    assert conn.stats.recoveries == 1


def test_dropped_channel_under_a_fill_rebuilds_the_session(ready):
    """A result's fill travels on the session's one connection: losing that
    channel rebuilds the session, as any dropped channel does.  The rows
    arrive once each and the abandoned server session is reaped."""
    system, conn, cur = ready
    app_session = conn.app.session_id
    system.faults.schedule_on_sql(FaultKind.DROP_CONNECTION, "EXEC phx_")
    cur.execute("SELECT k FROM t ORDER BY k")
    assert [k for (k,) in cur.fetchall()] == list(range(1, 51))
    assert system.server.stats.crashes == 0
    assert (conn.stats.recoveries, conn.stats.spurious_timeouts) == (1, 0)
    assert conn.app.session_id != app_session
    assert conn.stats.sessions_reaped == 1
    assert list(system.server.sessions) == [conn.app.session_id]
    conn.close()
    assert len(system.server.sessions) == 0


def test_one_server_session_per_virtual_session(ready):
    """After open, after a fill and after a recovery the virtual session
    holds exactly one server session; after close() it holds none."""
    system, conn, cur = ready
    assert list(system.server.sessions) == [conn.app.session_id]
    cur.execute("SELECT k FROM t ORDER BY k")  # 50 rows at a 10-row block: filled
    assert conn.stats.queries_materialized == 1
    assert list(system.server.sessions) == [conn.app.session_id]
    first = cur.fetchmany(BLOCK)
    crash_restart(system)
    rest = cur.fetchall()  # the next block's fetch recovers
    assert [k for (k,) in first + rest] == list(range(1, 51))
    assert conn.stats.recoveries == 1
    assert list(system.server.sessions) == [conn.app.session_id]
    conn.close()
    assert len(system.server.sessions) == 0


def test_fast_restart_between_requests_detected_via_session_loss(ready):
    system, conn, cur = ready
    crash_restart(system)  # client saw nothing; session ids now invalid
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (50,)
    assert conn.stats.recoveries == 1


def test_ping_exhaustion_surfaces_original_error(system, monkeypatch):
    monkeypatch.setattr(recovery, "MAX_PING_ATTEMPTS", 3)
    conn = system.phoenix.connect(system.DSN)
    conn.config.sleep = lambda _s: None  # never restart the server
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT)")
    system.server.crash()
    with pytest.raises(CommunicationError):
        cur.execute("SELECT count(*) FROM t")


# ------------------------------------------------------------------ transactions

def test_a_wrapped_update_with_bound_values_whose_reply_is_lost_applies_once(ready):
    """The values and the sequence number travel beside the wrapper's text:
    the probe after the lost reply finds the statement's status row, and the
    rowcount it logged is the one reported."""
    system, conn, cur = ready
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "SET v = (v || ?)")
    cur.execute("UPDATE t SET v = v || ? WHERE k <= ?", ["!", 3])
    assert cur.rowcount == 3
    assert (conn.stats.recoveries, conn.stats.probe_hits) == (1, 1)
    cur.execute("SELECT v FROM t WHERE k <= 4 ORDER BY k")
    assert cur.fetchall() == [("v1!",), ("v2!",), ("v3!",), ("v4",)]


def test_open_transaction_replayed(ready):
    system, conn, cur = ready
    conn.begin()
    cur.execute("INSERT INTO t VALUES (100, 'tx1')")
    crash_restart(system)
    cur.execute("INSERT INTO t VALUES (101, 'tx2')")  # triggers recovery+replay
    conn.commit()
    cur.execute("SELECT count(*) FROM t WHERE k >= 100")
    assert cur.fetchone() == (2,)
    assert conn.stats.replayed_txns == 1


def test_commit_reply_lost_is_not_replayed(ready):
    system, conn, cur = ready
    conn.begin()
    cur.execute("INSERT INTO t VALUES (100, 'tx')")
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "COMMIT")
    conn.commit()  # reply lost, but the commit landed
    cur.execute("SELECT count(*) FROM t WHERE k = 100")
    assert cur.fetchone() == (1,)
    assert conn.stats.probe_hits == 1
    assert conn.stats.replayed_txns == 0


def test_commit_lost_before_execute_is_replayed(ready):
    system, conn, cur = ready
    conn.begin()
    cur.execute("INSERT INTO t VALUES (100, 'tx')")
    system.faults.schedule_on_sql(FaultKind.CRASH_BEFORE_EXECUTE, "COMMIT")
    conn.commit()  # txn lost entirely → replay + commit again
    cur.execute("SELECT count(*) FROM t WHERE k = 100")
    assert cur.fetchone() == (1,)
    assert conn.stats.replayed_txns == 1


def test_rollback_during_crash_equals_rollback(ready):
    system, conn, cur = ready
    conn.begin()
    cur.execute("INSERT INTO t VALUES (100, 'tx')")
    system.faults.schedule_on_sql(FaultKind.CRASH_BEFORE_EXECUTE, "ROLLBACK")
    conn.rollback()
    cur.execute("SELECT count(*) FROM t WHERE k = 100")
    assert cur.fetchone() == (0,)
    assert not conn.in_transaction


def test_queries_inside_replayed_transaction(ready):
    system, conn, cur = ready
    conn.begin()
    cur.execute("INSERT INTO t VALUES (100, 'tx')")
    cur.execute("SELECT count(*) FROM t WHERE k = 100")
    assert cur.fetchone() == (1,)
    crash_restart(system)
    cur.execute("SELECT count(*) FROM t WHERE k = 100")  # recovery + replay
    assert cur.fetchone() == (1,)
    conn.commit()


# ------------------------------------------------------------------ cursors

def test_keyset_cursor_survives_crash(ready):
    system, conn, cur = ready
    ks = conn.cursor()
    ks.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    ks.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 10)
    ks.execute("SELECT k, v FROM t WHERE k <= 30")
    first = ks.fetchmany(10)
    crash_restart(system)
    rest = ks.fetchall()
    assert [r[0] for r in first + rest] == list(range(1, 31))


def test_keyset_cursor_sees_post_crash_updates(ready):
    system, conn, cur = ready
    ks = conn.cursor()
    ks.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    ks.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 5)
    ks.execute("SELECT k, v FROM t WHERE k <= 10")
    ks.fetchmany(5)
    cur.execute("UPDATE t SET v = 'CHANGED' WHERE k = 8")
    crash_restart(system)
    rest = ks.fetchall()
    assert (8, "CHANGED") in rest


def test_dynamic_cursor_survives_crash_and_sees_inserts(ready):
    system, conn, cur = ready
    dyn = conn.cursor()
    dyn.set_attr(StatementAttr.CURSOR_TYPE, CursorType.DYNAMIC)
    dyn.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 5)
    dyn.execute("SELECT k FROM t WHERE k BETWEEN 20 AND 40")
    first = dyn.fetchmany(5)
    cur.execute("INSERT INTO t VALUES (33, 'late')") if False else None
    crash_restart(system)
    cur.execute("INSERT INTO t VALUES (90, 'outside')")  # outside range
    rest = dyn.fetchall()
    keys = [r[0] for r in first + rest]
    assert keys == sorted(keys)
    assert set(keys) == set(range(20, 41))


def test_recovery_timings_recorded(ready):
    system, conn, cur = ready
    cur.execute("SELECT k FROM t ORDER BY k")
    cur.fetchmany(10)
    crash_restart(system)
    conn.recovery.recover(CommunicationError("test"))
    assert conn.stats.last_virtual_session_seconds > 0
    assert conn.stats.last_sql_state_seconds > 0


def test_many_crashes_across_workload(ready):
    """Soak: a small workload with a crash between every step."""
    system, conn, cur = ready
    for i in range(5):
        crash_restart(system)
        cur.execute(f"INSERT INTO t VALUES ({200 + i}, 'x{i}')")
        crash_restart(system)
        cur.execute(f"SELECT count(*) FROM t WHERE k >= 200")
        assert cur.fetchone() == (i + 1,)
    assert conn.stats.recoveries == 10


def test_second_crash_inside_post_recovery_fetch(ready):
    """Regression (found by the fault-schedule property soak): a crash
    before the first fetch has recovery re-open the result's server cursor;
    a *second* crash during the very first FETCH from it triggers recovery
    inside the guarded fetch call.  The rows that fetch finally returns
    come from the cursor that recovery re-opened at the rows shipped: none
    is lost, none repeats."""
    system, conn, cur = ready
    from repro.net.protocol import FetchRequest

    cur.execute("SELECT k FROM t ORDER BY k")
    crash_restart(system)
    conn.cursor().execute("SELECT count(*) FROM t")  # recovery 1: re-opened
    system.faults.schedule(
        FaultKind.CRASH_BEFORE_EXECUTE,
        matcher=lambda r: isinstance(r, FetchRequest),
    )
    rows = cur.fetchall()
    assert [r[0] for r in rows] == list(range(1, 51))
    assert conn.stats.recoveries == 2


def test_interrupted_rebuild_reaps_every_session_it_abandoned(ready):
    """Regression (found by the multi-fault chaos sweep): recovery attempt 1
    builds a session, then re-opening the open result hangs on a live
    server; attempt 2's connect is dropped.  Attempt 3 must still reap
    attempt 1's session — the ids used to die with the interrupted attempt,
    leaving one orphaned server session after close()."""
    system, conn, cur = ready
    from repro.net.protocol import ConnectRequest

    cur.execute("SELECT k FROM t ORDER BY k")
    first = cur.fetchmany(5)  # an open result: recovery has a table to re-open
    crash_restart(system)
    system.faults.schedule_on_sql(FaultKind.HANG, "SELECT * FROM phx_")
    system.faults.schedule(
        FaultKind.DROP_CONNECTION, matcher=lambda r: isinstance(r, ConnectRequest), after=1
    )
    conn.cursor().execute("SELECT count(*) FROM t")
    rest = cur.fetchall()
    assert [r[0] for r in first + rest] == list(range(1, 51))
    assert len(system.faults.fired) == 2
    assert conn.stats.sessions_reaped == 1
    conn.close()
    assert len(system.server.sessions) == 0


def test_catalog_call_rides_out_repeated_crashes(ready):
    """Regression (multi-fault chaos sweep): the key cursor's catalog call
    retried once, so a second crash on it reached the application."""
    system, conn, cur = ready
    from repro.net.protocol import TableSchemaRequest

    for _ in range(3):  # one-shot each: the call and its first two retries
        system.faults.schedule(
            FaultKind.CRASH_BEFORE_EXECUTE,
            matcher=lambda r: isinstance(r, TableSchemaRequest),
        )
    cur.set_attr(StatementAttr.CURSOR_TYPE, CursorType.KEYSET)
    cur.execute("SELECT k FROM t")
    assert len(cur.fetchall()) == 50
    assert conn.stats.recoveries == 3


def test_repeated_crashes_on_retried_request(ready):
    """Each retry of an idempotent request may meet a fresh crash; the
    bounded retry loop must ride out several in a row."""
    system, conn, cur = ready
    for _ in range(4):
        system.faults.schedule_on_sql(FaultKind.CRASH_BEFORE_EXECUTE, "count(*) FROM t")
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (50,)
    assert conn.stats.recoveries == 4


# ------------------------------------------------------------------ request counts
#
# Session open is one request, and so is phase one of a recovery: a connect
# that carries the session recipe (reap, SET replay, proxy, status table and
# the guarded request's status probe).  Phase two is one request per open
# default result.


def _sent_since(system, before: dict[str, int]) -> dict[str, int]:
    """Requests sent since ``before`` (a copy of the metrics' breakdown), by type."""
    now = system.metrics.by_request_type
    return {kind: n - before.get(kind, 0) for kind, n in now.items() if n != before.get(kind, 0)}


def _is_connect(request) -> bool:
    return type(request).__name__ == "ConnectRequest"


def test_session_open_is_one_connect(system):
    before = dict(system.metrics.by_request_type)
    conn = system.phoenix.connect(system.DSN)
    assert _sent_since(system, before) == {"ConnectRequest": 1}
    assert list(system.server.sessions) == [conn.app.session_id]
    assert "#phx_proxy" in system.server.sessions[conn.app.session_id].temp_tables
    assert conn.names.status_table in system.server.table_names()
    conn.close()


def test_a_lost_dml_reply_beside_an_open_result_costs_three_requests(ready):
    """After the DML whose reply the crash took: a connect the down server
    refuses, the connect whose recipe also reads the DML's status row (a
    hit: no re-send), and the held result's re-open at the rows it shipped.
    The update lands once."""
    system, conn, cur = ready
    cur.execute("CREATE TABLE wallet (id INT PRIMARY KEY, v INT)")
    cur.execute("INSERT INTO wallet VALUES (1, 0)")
    held = blocked_cursor(conn)
    held.execute("SELECT k FROM t ORDER BY k")
    delivered = held.fetchmany(BLOCK + 1)  # past the first block: a server cursor
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "UPDATE wallet SET")
    before = dict(system.metrics.by_request_type)
    cur.execute("UPDATE wallet SET v = v + 1 WHERE id = 1")
    assert cur.rowcount == 1
    assert _sent_since(system, before) == {"ExecuteRequest": 2, "ConnectRequest": 2}
    assert (conn.stats.recoveries, conn.stats.probe_hits, conn.stats.recovery_pings) == (1, 1, 1)
    cur.execute("SELECT v FROM wallet WHERE id = 1")
    assert cur.fetchall() == [(1,)]
    delivered += held.fetchall()
    assert [k for (k,) in delivered] == list(range(1, 51))


@pytest.mark.parametrize("kind", [FaultKind.DROP_CONNECTION, FaultKind.CRASH_AFTER_EXECUTE])
def test_a_fault_on_the_recipe_connect_leaves_no_orphan_holding_locks(ready, kind):
    """The server survives a dropped channel, and so does the session it
    carried — with its open transaction and row lock.  The recovery's own
    connect then meets ``kind``: dropped before the recipe ran, or the
    server dies after it ran and before the reply.  The next connect reaps
    what is left, the transaction is replayed without waiting on a lock,
    and one server session remains."""
    system, conn, cur = ready
    conn.begin()
    cur.execute("UPDATE t SET v = 'x' WHERE k = 1")
    cur.execute("SET lock_timeout 50")
    system.faults.schedule_on_sql(FaultKind.DROP_CONNECTION, "UPDATE t SET")
    system.faults.schedule(kind, matcher=_is_connect)
    cur.execute("UPDATE t SET v = 'y' WHERE k = 2")
    conn.commit()
    assert system.faults.fired == [FaultKind.DROP_CONNECTION, kind]
    assert conn.stats.recoveries == 1 and conn.stats.replayed_txns == 1
    assert list(system.server.sessions) == [conn.app.session_id]
    cur.execute("SELECT k, v FROM t WHERE k <= 2 ORDER BY k")
    assert cur.fetchall() == [(1, "x"), (2, "y")]


def test_set_replay_order_survives_recovery(ready):
    """The recipe replays the SETs in application order: the last value of
    an option set three times is the one the rebuilt session holds, crash
    after crash."""
    system, conn, cur = ready
    for statement in ("SET lock_timeout 500", "SET a 1", "SET lock_timeout 700", "SET a 2",
                      "SET lock_timeout 600"):
        cur.execute(statement)
    for _ in range(2):
        crash_restart(system)
        cur.execute("SELECT 1")
        options = system.server.sessions[conn.app.session_id].options
        assert (options["lock_timeout"], options["a"]) == (600, 2)
    assert conn.stats.recoveries == 2


def test_a_crash_recovery_shaped_session_still_restarts_the_engine_four_times(ready):
    """The benchmark's crash_recovery slice in small: an aggregate held open
    past its first block across four cycles of a point read (its needle,
    ``EXEC phx_``, matches only a materialized result's fill) and an UPDATE
    whose reply a crash takes.  The faults stay on: four engine restarts,
    and no request recovery sends carries either needle.  29 requests for 8
    statements, as in the benchmark (56 when recovery was nine requests)."""
    system, conn, cur = ready
    cur.execute("CREATE TABLE wallet (id INT PRIMARY KEY, v INT)")
    cur.execute("INSERT INTO wallet VALUES (1, 0)")
    cur.execute("CREATE TABLE detail (k INT PRIMARY KEY, v INT)")
    cur.execute("INSERT INTO detail VALUES " + ", ".join(f"({k}, {k % 7})" for k in range(100)))
    conn.close()
    sent: list[str] = []
    system.faults.schedule(
        FaultKind.HANG, matcher=lambda r: sent.append(getattr(r, "sql", "")), repeat=True
    )
    restarts, before = system.server.stats.restarts, system.metrics.round_trips
    conn = system.phoenix.connect(system.DSN)
    conn.config.sleep = lambda _s: system.endpoint.restart_server() if not system.server.up else None
    held = blocked_cursor(conn)
    held.execute("SELECT k % 30, sum(v), count(*) FROM detail GROUP BY k % 30 ORDER BY 1")
    delivered = held.fetchmany(BLOCK)
    for k in (3, 14, 15, 92):
        point = conn.cursor()
        system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "EXEC phx_")
        point.execute("SELECT k, v FROM detail WHERE k = ?", [k])
        assert point.fetchall() == [(k, k % 7)]
        delivered += held.fetchmany(1)
        system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "UPDATE wallet SET")
        conn.cursor().execute("UPDATE wallet SET v = v + 1 WHERE id = 1")
        delivered += held.fetchmany(1)
    delivered += held.fetchall()
    conn.close()
    assert system.server.stats.restarts - restarts == 4
    assert system.metrics.round_trips - before == 29
    assert [g for g, _total, _n in delivered] == list(range(30))
    assert sum(1 for sql in sent if "EXEC phx_" in sql) == 1  # the held result's fill
    assert sum(1 for sql in sent if "UPDATE wallet SET" in sql) == 4  # no re-send
    system.faults.cancel_all()
    loader = system.server.connect()
    assert system.server.execute(loader, "SELECT v FROM wallet").rows == [(4,)]
