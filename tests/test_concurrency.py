"""Concurrent serving: threaded dispatch, waiting locks, deadlock victims,
parallel recovery, and multi-client crash traces.

The engine used to simulate one statement at a time; these tests pin the
behaviours that make genuinely concurrent clients safe — per-session FIFO
ordering through the dispatcher, blocking lock waits with a waits-for-graph
deadlock detector, Phoenix's transparent deadlock retry, ``recover_all``'s
parallel fleet rebuild, and the multi-client chaos oracle.
"""

from __future__ import annotations

import gc
import threading
import time
import weakref

import pytest

import repro
from repro.chaos.multi import check_multi_run, run_multi_trace
from repro.core.parallel import recover_all
from repro.engine import dispatch
from repro.engine.dispatch import SessionDispatcher
from repro.engine.locks import LockManager, LockMode
from repro.errors import DeadlockError, LockError, ServerCrashedError
from repro.net.faults import FaultKind


# ---------------------------------------------------------------- lock waits


def test_wait_until_holder_releases():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)

    acquired = threading.Event()

    def waiter():
        locks.acquire(2, "t", LockMode.EXCLUSIVE, timeout=5.0)
        acquired.set()

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    assert not acquired.is_set()  # still parked behind txn 1
    assert locks.waiting() == {2: {1}}
    locks.release_all(1)
    thread.join(timeout=5)
    assert acquired.is_set()
    assert locks.held(2, "t") is LockMode.EXCLUSIVE
    assert locks.stats.waits == 1


def test_wait_budget_expires_as_lock_error():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    started = time.monotonic()
    with pytest.raises(LockError, match="lock wait timeout"):
        locks.acquire(2, "t", LockMode.EXCLUSIVE, timeout=0.05)
    assert time.monotonic() - started >= 0.05
    assert locks.stats.wait_timeouts == 1


def test_standalone_manager_still_fails_fast():
    # the historical no-wait behaviour: default_timeout 0 outside the server
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    started = time.monotonic()
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.SHARED)
    assert time.monotonic() - started < 0.05


def test_no_wait_window_overrides_timeout():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    with locks.no_wait():
        with pytest.raises(LockError):
            locks.acquire(2, "t", LockMode.EXCLUSIVE, timeout=5.0)


def test_invalidate_wakes_sleepers_with_server_crashed():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    failure: list[Exception] = []

    def waiter():
        try:
            locks.acquire(2, "t", LockMode.EXCLUSIVE, timeout=30.0)
        except Exception as exc:
            failure.append(exc)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    locks.invalidate()
    thread.join(timeout=5)
    assert len(failure) == 1
    assert isinstance(failure[0], ServerCrashedError)


# ------------------------------------------------------- S->X upgrade (pinned)


def test_upgrade_still_granted_when_sole_holder_after_reentry():
    # regression pin: the upgrader's own re-entrant shares never block it
    locks = LockManager()
    locks.acquire(1, "t", LockMode.SHARED)
    locks.acquire(1, "t", LockMode.SHARED)
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    assert locks.held(1, "t") is LockMode.EXCLUSIVE


def test_upgrade_waits_for_other_reader_then_succeeds():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.SHARED)
    locks.acquire(2, "t", LockMode.SHARED)
    upgraded = threading.Event()

    def upgrader():
        locks.acquire(1, "t", LockMode.EXCLUSIVE, timeout=5.0)
        upgraded.set()

    thread = threading.Thread(target=upgrader)
    thread.start()
    time.sleep(0.05)
    assert not upgraded.is_set()
    locks.release_all(2)
    thread.join(timeout=5)
    assert upgraded.is_set()
    assert locks.held(1, "t") is LockMode.EXCLUSIVE


# ---------------------------------------------------------------- deadlocks


def test_waits_for_cycle_kills_the_requester():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.EXCLUSIVE)
    locks.acquire(2, "b", LockMode.EXCLUSIVE)
    parked = threading.Event()
    outcome: list = []

    def waiter():
        parked.set()
        try:
            locks.acquire(1, "b", LockMode.EXCLUSIVE, timeout=30.0)
            outcome.append("granted")
        except DeadlockError:
            outcome.append("deadlock")

    thread = threading.Thread(target=waiter)
    thread.start()
    parked.wait(timeout=5)
    for _ in range(100):  # txn 1's waits-for edge must be registered
        if locks.waiting().get(1) == {2}:
            break
        time.sleep(0.01)
    # txn 2 closing the cycle is the victim: it raises, txn 1 keeps waiting
    with pytest.raises(DeadlockError, match="victim"):
        locks.acquire(2, "a", LockMode.EXCLUSIVE, timeout=30.0)
    assert locks.stats.deadlocks == 1
    locks.release_all(2)  # the victim's abort frees txn 1
    thread.join(timeout=5)
    assert outcome == ["granted"]


def test_phoenix_retries_deadlock_victim_transparently(system):
    """Classic AB/BA cross-order transactions: the victim's transaction is
    aborted server-side and Phoenix replays it — both applications see only
    success."""
    a = system.phoenix.connect(system.DSN, user="alice")
    b = system.phoenix.connect(system.DSN, user="bob")
    setup = a.cursor()
    setup.execute("CREATE TABLE ab (k INT PRIMARY KEY, v INT)")
    setup.execute("INSERT INTO ab VALUES (1, 0)")
    setup.execute("CREATE TABLE ba (k INT PRIMARY KEY, v INT)")
    setup.execute("INSERT INTO ba VALUES (1, 0)")
    for conn in (a, b):
        conn.cursor().execute("SET lock_timeout 10000")

    first_held = threading.Barrier(2)
    failures: list[str] = []

    def run(conn, first, second):
        try:
            cursor = conn.cursor()
            conn.begin()
            cursor.execute(f"UPDATE {first} SET v = v + 1 WHERE k = 1")
            first_held.wait(timeout=10)  # both hold their first table's X
            cursor.execute(f"UPDATE {second} SET v = v + 1 WHERE k = 1")
            conn.commit()
        except Exception as exc:
            failures.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=run, args=(a, "ab", "ba")),
        threading.Thread(target=run, args=(b, "ba", "ab")),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert failures == []
    assert a.stats.deadlock_retries + b.stats.deadlock_retries >= 1
    check = a.cursor()
    check.execute("SELECT v FROM ab")
    assert check.fetchone() == (2,)
    check.execute("SELECT v FROM ba")
    assert check.fetchone() == (2,)
    a.close()
    b.close()


# ---------------------------------------------------------------- dispatcher


def test_dispatcher_preserves_per_key_order():
    dispatcher = SessionDispatcher()
    seen: list[int] = []
    lock = threading.Lock()

    def submit(i):
        def fn():
            with lock:
                seen.append(i)

        dispatcher.run("s1", fn)

    threads = []
    for i in range(20):
        thread = threading.Thread(target=submit, args=(i,))
        thread.start()
        time.sleep(0.002)  # stagger submissions so FIFO order is defined
        threads.append(thread)
    for thread in threads:
        thread.join(timeout=10)
    assert seen == list(range(20))
    dispatcher.close()


def test_dispatcher_runs_different_keys_concurrently():
    dispatcher = SessionDispatcher()
    both_inside = threading.Barrier(2, action=lambda: None)
    met: list[bool] = []

    def fn():
        both_inside.wait(timeout=5)  # only passes if both run at once
        met.append(True)

    threads = [
        threading.Thread(target=dispatcher.run, args=(key, fn))
        for key in ("s1", "s2")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert met == [True, True]
    dispatcher.close()


def test_an_idle_worker_does_not_pin_a_closed_system(monkeypatch):
    """A worker waiting up to ``IDLE_TIMEOUT`` for new work holds nothing of
    the item it finished: the last request's closure reaches the endpoint,
    the server and its database, which a closed system must free by
    reference count, not when the worker times out."""
    monkeypatch.setattr(dispatch, "IDLE_TIMEOUT", 5.0)  # the worker surely idles on
    dsn = "idle-worker-pin"
    system = repro.make_system(dsn=dsn)
    dispatcher = system.server.dispatcher  # holds no reference to the server
    connection = repro.connect(system, phoenix=False)
    connection.cursor().execute("SELECT 1")
    connection.close()  # the last dispatched request
    gc.collect()
    gc.disable()
    try:
        database = weakref.ref(system.server.database)
        system.close()
        del repro._systems[dsn], system, connection
        assert database() is None
        assert dispatcher.active_workers >= 1  # still idling
    finally:
        gc.enable()


def test_concurrent_clients_on_shared_table(system):
    """Several clients hammer one table through the full wire stack; every
    wrapped DML lands exactly once."""
    clients = 4
    per_client = 6
    setup = system.phoenix.connect(system.DSN, user="setup")
    setup.cursor().execute("CREATE TABLE tally (k INT PRIMARY KEY, v INT)")
    connections = [
        system.phoenix.connect(system.DSN, user=f"c{i}") for i in range(clients)
    ]
    failures: list[str] = []

    def run(i, conn):
        try:
            cursor = conn.cursor()
            for j in range(per_client):
                cursor.execute(f"INSERT INTO tally VALUES ({i * 100 + j}, {i})")
        except Exception as exc:
            failures.append(f"client {i}: {type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=run, args=(i, conn))
        for i, conn in enumerate(connections)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert failures == []
    check = setup.cursor()
    check.execute("SELECT count(*) FROM tally")
    assert check.fetchone() == (clients * per_client,)
    for conn in connections:
        conn.close()
    setup.close()


# ---------------------------------------------------------------- parallel recovery


def _build_fleet(system, sessions):
    loader = system.server.connect(user="loader")
    system.server.execute(
        loader, "CREATE TABLE fleet_t (k INT PRIMARY KEY, v INT)"
    )
    system.server.disconnect(loader)
    fleet = []
    cursors = []
    for i in range(sessions):
        connection = system.phoenix.connect(system.DSN, user=f"f{i}")
        cursor = connection.cursor()
        base = 10 * (i + 1)
        cursor.execute(
            f"INSERT INTO fleet_t VALUES ({base}, 1), ({base + 1}, 2), ({base + 2}, 3)"
        )
        cursor.execute(
            f"SELECT k FROM fleet_t WHERE k >= {base} AND k <= {base + 2} ORDER BY k"
        )
        cursor.fetchone()  # leave the delivery open mid-result
        fleet.append(connection)
        cursors.append(cursor)
    return fleet, cursors


def test_recover_all_parallel_rebuilds_every_session(system):
    fleet, cursors = _build_fleet(system, sessions=5)
    system.server.crash()
    system.endpoint.restart_server()
    outcomes = recover_all(fleet, max_workers=4)
    assert [o.error for o in outcomes] == [None] * 5
    assert all(o.rebuilt for o in outcomes)
    for i, cursor in enumerate(cursors):
        base = 10 * (i + 1)
        # the half-fetched delivery resumes from its saved position
        assert [row[0] for row in cursor.fetchall()] == [base + 1, base + 2]
    for connection in fleet:
        connection.close()


def test_recover_all_is_idempotent_when_server_survived(system):
    fleet, _cursors = _build_fleet(system, sessions=3)
    outcomes = recover_all(fleet, max_workers=2)  # nothing actually crashed
    assert [o.error for o in outcomes] == [None] * 3
    assert not any(o.rebuilt for o in outcomes)  # probe: sessions survived
    for connection in fleet:
        connection.close()


# ---------------------------------------------------------------- multi-client chaos


def test_multi_client_golden_trace_is_clean():
    golden = run_multi_trace(2)
    assert golden.completed, [c.error for c in golden.clients]
    assert golden.orphan_sessions == 0
    assert golden.leftover_tables == ()
    assert check_multi_run(golden, run_multi_trace(2)) == []


def test_multi_client_positional_crash_recovers_exactly_once():
    golden = run_multi_trace(2)
    crashed = run_multi_trace(
        2, schedule=((golden.requests_seen // 2, FaultKind.CRASH_BEFORE_EXECUTE),)
    )
    assert crashed.fired == ("crash_before_execute",)
    assert check_multi_run(golden, crashed) == []


def test_multi_client_targeted_commit_crash_recovers_exactly_once():
    golden = run_multi_trace(3)
    crashed = run_multi_trace(3, crash_victim=0)
    assert crashed.fired == ("crash_before_execute",)
    assert check_multi_run(golden, crashed) == []
    # every client was mid-transaction: all of them recovered
    assert sum(c.recoveries for c in crashed.clients) >= 3
