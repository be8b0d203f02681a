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
from repro.chaos import ChaosExplorer, check_run, multi_client_trace, run_trace
from repro.core.parallel import recover_all
from repro.engine import dispatch
from repro.engine.dispatch import SessionDispatcher
from repro.engine.locks import LockManager, LockMode
from repro.errors import DeadlockError, LockError, ServerCrashedError
from repro.net.faults import STORAGE_FAULTS, WIRE_FAULTS, FaultKind


# ---------------------------------------------------------------- lock waits


def test_wait_until_holder_releases():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)

    acquired = threading.Event()

    def waiter():
        locks.acquire(2, "t", LockMode.EXCLUSIVE)
        acquired.set()

    locks.set_timeout(2, 5.0)

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
    locks.set_timeout(2, 0.05)
    with pytest.raises(LockError, match="lock wait timeout"):
        locks.acquire(2, "t", LockMode.EXCLUSIVE)
    assert time.monotonic() - started >= 0.05
    assert locks.stats.wait_timeouts == 1


def test_standalone_manager_still_fails_fast():
    # the historical no-wait behaviour: default_timeout 0 outside the server
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    started = time.monotonic()
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    assert time.monotonic() - started < 0.05


def test_no_wait_window_overrides_timeout():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    locks.set_timeout(2, 5.0)
    with locks.no_wait():
        with pytest.raises(LockError):
            locks.acquire(2, "t", LockMode.EXCLUSIVE)


def test_invalidate_wakes_sleepers_with_server_crashed():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    failure: list[Exception] = []

    def waiter():
        try:
            locks.acquire(2, "t", LockMode.EXCLUSIVE)
        except Exception as exc:
            failure.append(exc)

    locks.set_timeout(2, 30.0)

    thread = threading.Thread(target=waiter)
    thread.start()
    time.sleep(0.05)
    locks.invalidate()
    thread.join(timeout=5)
    assert len(failure) == 1
    assert isinstance(failure[0], ServerCrashedError)


# ------------------------------------------------------- IX->X upgrade (pinned)


def test_upgrade_still_granted_when_sole_holder_after_reentry():
    # regression pin: the upgrader's own re-entrant intents never block it
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    assert locks.held(1, "t") is LockMode.EXCLUSIVE


def test_upgrade_waits_for_other_intent_then_succeeds():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    locks.set_timeout(1, 5.0)
    upgraded = threading.Event()

    def upgrader():
        locks.acquire(1, "t", LockMode.EXCLUSIVE)
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
    locks.default_timeout = 30.0
    parked = threading.Event()
    outcome: list = []

    def waiter():
        parked.set()
        try:
            locks.acquire(1, "b", LockMode.EXCLUSIVE)
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
        locks.acquire(2, "a", LockMode.EXCLUSIVE)
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


def _run(dispatcher: SessionDispatcher, key, fn) -> None:
    """Submit ``fn`` under ``key`` and wait for its callback."""
    done = threading.Event()
    dispatcher.submit(key, fn, lambda value, exc: done.set())
    done.wait()


def test_dispatcher_preserves_per_key_order():
    dispatcher = SessionDispatcher()
    seen: list[int] = []
    lock = threading.Lock()

    def submit(i):
        def fn():
            with lock:
                seen.append(i)

        _run(dispatcher, "s1", fn)

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
        threading.Thread(target=_run, args=(dispatcher, key, fn))
        for key in ("s1", "s2")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert met == [True, True]
    dispatcher.close()


@pytest.mark.parametrize("listen", [None, "127.0.0.1:0"], ids=["inprocess", "tcp"])
def test_a_connect_waiting_on_a_lock_does_not_hold_up_another_clients_connect(listen):
    """Connects carry no session, so each dispatches under a key of its own:
    one whose recipe parks in a row-lock wait leaves the next client's
    connect free to run."""
    system = repro.make_system(dsn=f"connect-keys-{listen}", listen=listen)
    server = system.server
    holder = server.connect(user="holder")
    for sql in (
        "CREATE TABLE lk (k INT PRIMARY KEY, v INT)",
        "INSERT INTO lk VALUES (1, 0)",
        "BEGIN TRANSACTION",
        "UPDATE lk SET v = 1 WHERE k = 1",
    ):
        server.execute(holder, sql)
    opened: dict[str, object] = {}

    def connect(user, **kwargs):
        opened[user] = system.native.connect(user, **kwargs)

    waiter = threading.Thread(
        target=connect,
        args=("waiter",),
        kwargs={"options": {"lock_timeout": 10_000}, "recipe": "UPDATE lk SET v = 2 WHERE k = 1"},
    )
    waiter.start()
    deadline = time.monotonic() + 5.0
    while not server.database.locks.waiting():
        assert time.monotonic() < deadline, "the recipe never waited on the row lock"
        time.sleep(0.001)
    second = threading.Thread(target=connect, args=("second",))
    second.start()
    second.join(5.0)
    try:
        assert not second.is_alive(), "the second connect queued behind the waiting one"
        assert waiter.is_alive() and "waiter" not in opened
    finally:
        server.execute(holder, "COMMIT")
        waiter.join(5.0)
        second.join(5.0)
    assert set(opened) == {"waiter", "second"}
    assert server.execute(holder, "SELECT v FROM lk").rows == [(2,)]
    for connection in opened.values():
        connection.disconnect()
    system.close()


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


TRANSPORTS = pytest.mark.parametrize("transport", ["inprocess", "tcp"])


@TRANSPORTS
def test_multi_client_golden_trace_is_clean(transport):
    trace = multi_client_trace(2)
    golden = run_trace(trace, transport=transport)
    assert golden.completed, golden.error
    assert golden.orphan_sessions == 0
    assert golden.leftover_tables == ()
    assert check_run(golden, run_trace(trace, transport=transport)) == []


@TRANSPORTS
def test_multi_client_positional_crash_recovers_exactly_once(transport):
    trace = multi_client_trace(2)
    golden = run_trace(trace, transport=transport)
    crashed = run_trace(
        trace,
        ((golden.requests_seen // 2, FaultKind.CRASH_BEFORE_EXECUTE),),
        transport=transport,
    )
    assert crashed.fired == ("crash_before_execute",)
    assert check_run(golden, crashed) == []


@TRANSPORTS
def test_multi_client_targeted_commit_crash_recovers_exactly_once(transport):
    trace = multi_client_trace(3)
    golden = run_trace(trace, transport=transport)
    crashed = run_trace(trace, victim=0, transport=transport)
    assert crashed.fired == ("crash_before_execute",)
    assert check_run(golden, crashed) == []
    # every client was mid-transaction: all of them recovered
    assert sum(c.recoveries for c in crashed.clients) >= 3


def test_strided_sweep_over_two_clients_recovers_every_schedule():
    """Every wire and storage fault kind at every 3rd request of two
    interleaving clients; the oracle judges each client on its own."""
    explorer = ChaosExplorer(multi_client_trace(2))
    report = explorer.sweep(WIRE_FAULTS + STORAGE_FAULTS, stride=3)
    assert report.runs == 6 * len(range(0, explorer.golden.requests_seen, 3))
    assert report.recovered_fraction == 1.0, report.summary()["failures"]
    assert report.total_recoveries > 0
