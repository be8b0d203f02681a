"""The one failure path: bounded under periodic crashes, and blind to
results the application is done with.

Every Phoenix request rides through failures in
``PhoenixConnection._ride_through``, which spends one recovery budget per
application call.  These tests pin what that buys: a crash period that
resonates with a statement's recover-and-re-send cycle ends in the original
communication error instead of a livelock (ROADMAP, exactly-once item (d)),
and a recovery costs the same however many statements a cursor ran before.
"""

from __future__ import annotations

import pytest

from repro.core.connection import MAX_OPERATION_RETRIES
from repro.core.recovery import PhoenixRecovery
from repro.errors import CommunicationError, RecoveryError, SessionLostError
from repro.net.faults import FaultKind
from repro.odbc.constants import StatementAttr

#: what a statement may raise once Phoenix gives up riding through
GAVE_UP = (CommunicationError, SessionLostError, RecoveryError)


@pytest.fixture()
def recover_calls(monkeypatch):
    """Counts ``recover()`` calls, and turns a retry loop that never ends
    into a failure instead of a hung test run."""
    calls = [0]
    original = PhoenixRecovery.recover

    def counting(self, cause, **kwargs):
        calls[0] += 1
        assert calls[0] <= 40 * MAX_OPERATION_RETRIES, "recovery is spinning"
        return original(self, cause, **kwargs)

    monkeypatch.setattr(PhoenixRecovery, "recover", counting)
    return calls


@pytest.fixture()
def wallet(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE wallet (id INT PRIMARY KEY, v INT)")
    cur.execute("INSERT INTO wallet VALUES (1, 0)")
    return system, phoenix_conn, cur


def _quiesce(system) -> None:
    system.faults.cancel_all()
    if not system.server.up:
        system.endpoint.restart_server()


def _server_read(system, sql: str):
    """Read server-side, bypassing the wire and its fault schedule."""
    return system.server.execute(system.server.connect(), sql).result_set.rows


UPDATE = "UPDATE wallet SET v = v + 1 WHERE id = 1"


def test_resonant_crash_period_raises_instead_of_livelocking(wallet, recover_calls):
    system, conn, cur = wallet
    # calibrate: one crashed UPDATE is the crashed request plus its
    # recover / probe / re-send cycle
    before = system.faults.requests_seen
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE)
    cur.execute(UPDATE)
    cycle = system.faults.requests_seen - before - 1
    acknowledged = 1
    recover_calls[0] = 0

    # a crash every `cycle` requests: the re-sent UPDATE is always the
    # request that crashes, so no number of retries gets it through
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, every=cycle)
    with pytest.raises(CommunicationError):
        for _ in range(4 * cycle):
            cur.execute(UPDATE)
            acknowledged += 1
    assert recover_calls[0] == MAX_OPERATION_RETRIES
    assert acknowledged == cycle  # everything before the resonant request

    _quiesce(system)
    assert _server_read(system, "SELECT v FROM wallet") == [(acknowledged,)]
    # the connection is still usable once the server stays up
    cur.execute(UPDATE)
    assert cur.rowcount == 1
    cur.execute("SELECT v FROM wallet")
    assert cur.fetchall() == [(acknowledged + 1,)]


def _run_dml(conn, cur, done):
    cur.execute(UPDATE)
    done["wallet"] += 1


def _run_select(conn, cur, done):
    cur.execute("SELECT v FROM wallet WHERE id = 1")
    assert cur.fetchall() == [(done["wallet"],)]


def _run_transaction(conn, cur, done):
    conn.begin()
    cur.execute(UPDATE)
    cur.execute(UPDATE)
    conn.commit()
    done["wallet"] += 2


def _run_batch(conn, cur, done):
    base = 100 + 6 * done["batches"]
    cur.set_attr(StatementAttr.BATCH_SIZE, 3)
    cur.executemany(
        "INSERT INTO wallet VALUES (?, 0)", [[base + i] for i in range(6)]
    )
    done["batches"] += 1


@pytest.mark.parametrize("every", [3, 5, 6, 7, 8, 9, 12, 17])
@pytest.mark.parametrize("shape", [_run_dml, _run_select, _run_transaction, _run_batch])
def test_periodic_crashes_complete_or_raise_within_the_budget(
    wallet, recover_calls, shape, every
):
    system, conn, cur = wallet
    done = {"wallet": 0, "batches": 0}
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, every=every)
    for _ in range(12):
        recover_calls[0] = 0
        try:
            shape(conn, cur, done)
        except GAVE_UP:
            break
        finally:
            # one application call spends at most one budget; the explicit
            # transaction is four of them
            assert recover_calls[0] <= 4 * MAX_OPERATION_RETRIES
    _quiesce(system)
    # exactly-once for everything that was acknowledged (a crashed request
    # never executed, so nothing unacknowledged landed either — except the
    # whole chunks of an executemany that gave up part-way)
    assert _server_read(system, "SELECT v FROM wallet WHERE id = 1") == [(done["wallet"],)]
    ((extra,),) = _server_read(system, "SELECT count(*) FROM wallet WHERE id >= 100")
    assert 6 * done["batches"] <= extra <= 6 * done["batches"] + 3


def _requests_for_a_crashed_update(system, conn, reexecutes: int) -> int:
    busy, held, writer = conn.cursor(), conn.cursor(), conn.cursor()
    held.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 2)  # 6 rows: materialized
    busy.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 2)
    held.execute("SELECT k FROM t ORDER BY k")
    first = held.fetchmany(2)
    for _ in range(reexecutes):
        busy.execute("SELECT v FROM t WHERE k <= 3 ORDER BY k")
        busy.fetchmany(1)
    before = system.faults.requests_seen
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE)
    writer.execute("UPDATE t SET v = v + 1 WHERE k = 1")
    requests = system.faults.requests_seen - before
    # the held-open cursor was repositioned server-side, past what it holds
    assert held._state.cursor_id is not None and held._state.shipped == 2
    assert first + held.fetchall() == [(k,) for k in range(1, 7)]
    for cursor in (busy, held, writer):
        cursor.close()
    return requests


def test_recovery_cost_does_not_grow_with_statements_a_cursor_ran(system, phoenix_conn):
    """A re-executed cursor's superseded result is closed: recovery verifies
    and repositions what the application still holds open, nothing else."""
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    cur.execute("INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0)")
    cur.close()
    once = _requests_for_a_crashed_update(system, phoenix_conn, 1)
    often = _requests_for_a_crashed_update(system, phoenix_conn, 24)
    assert once == often
    # nor does the connection keep holding what the cursors let go of
    assert not phoenix_conn.results
