"""Planned restarts: drain, engine swap, and client ride-through.

The paper only covers *unplanned* failure (DESIGN.md §5b); these tests pin
the planned-maintenance path built on the same recovery machinery:

* ``drain_and_restart`` under a 16-client workload completes with zero
  client-visible errors and exactly-once effects (the PR's acceptance
  line);
* the drain barrier parks new work — a connect too, which the swapped-in
  engine answers on the first try — drains wait out in-flight statements,
  and lock waiters still waiting after ``DRAIN_TIMEOUT`` are bounced
  retryably;
* crashes *during* a drain or swap recover exactly-once like any other
  crash (chaos sweep);
* drain counters surface in ``MetricsRegistry.snapshot()["server"]``.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.core import recovery
from repro.engine import server as server_module
from repro.engine.server import DrainStats
from repro.errors import OperationalError


def _make_table(system, rows: int = 1) -> None:
    loader = system.server.connect(user="loader")
    system.server.execute(loader, "CREATE TABLE pr (k INT PRIMARY KEY, v INT)")
    for i in range(rows):
        system.server.execute(loader, f"INSERT INTO pr VALUES ({i}, 0)")
    system.server.disconnect(loader)


def _rows(system) -> list[tuple]:
    checker = system.server.connect(user="checker")
    data = system.server.execute(checker, "SELECT k, v FROM pr ORDER BY k")
    rows = data.rows
    system.server.disconnect(checker)
    return rows


# ------------------------------------------------------- basic ride-through


def test_single_session_rides_through_planned_restart(system):
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")

    report = system.server.drain_and_restart()
    assert report is not None
    assert system.server.up and system.server.lifecycle == "running"

    # the very next statement triggers session recovery, then succeeds
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    cursor.execute("SELECT v FROM pr WHERE k = 0")
    assert cursor.fetchall() == [(2,)]
    assert connection.stats.recoveries == 1
    connection.close()


def test_drain_and_restart_uses_default_policy(system):
    """The one drain timeout, ``DRAIN_TIMEOUT``, is the whole policy."""
    _make_table(system)
    system.server.drain_and_restart()
    assert system.server.lifecycle == "running"
    assert system.registry.server.drains_completed == 1


def test_planned_restart_starts_the_caches_cold(system):
    """Every session ends at the swap, and its cached plans with it: the
    swapped-in engine parses and compiles a text it has served before."""
    _make_table(system)
    metrics = system.server.engine_metrics
    sql = "SELECT v FROM pr WHERE k = 0"
    session = system.server.connect()
    for _ in range(2):  # the second run is served from both caches
        system.server.execute(session, sql)
    assert metrics.plan_hits >= 1
    system.server.drain_and_restart()
    before = (metrics.parse_misses, metrics.plan_misses, metrics.plan_hits)
    system.server.execute(system.server.connect(), sql)
    assert (metrics.parse_misses, metrics.plan_misses, metrics.plan_hits) == (
        before[0] + 1, before[1] + 1, before[2]
    )


def test_begin_drain_while_draining_raises(system):
    system.server.begin_drain()
    try:
        with pytest.raises(OperationalError):
            system.server.begin_drain()
    finally:
        system.server._end_drain()


# ------------------------------------------------ the 16-client acceptance


def test_drain_under_16_clients_zero_errors(system, monkeypatch):
    clients, ops = 16, 6
    _make_table(system, rows=clients)
    system.endpoint.latency = 0.001
    connections = [
        system.phoenix.connect(system.DSN, user=f"c{i}") for i in range(clients)
    ]
    errors_seen: list[str] = []
    barrier = threading.Barrier(clients + 1)

    def worker(connection, key: int) -> None:
        try:
            cursor = connection.cursor()
            barrier.wait()
            for _ in range(ops):
                cursor.execute(f"UPDATE pr SET v = v + 1 WHERE k = {key}")
        except Exception as exc:  # noqa: BLE001 — the assertion below reports it
            errors_seen.append(f"{type(exc).__name__}: {exc}")

    threads = [
        threading.Thread(target=worker, args=(connections[i], i)) for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    time.sleep(0.004)  # let the workload get airborne
    monkeypatch.setattr(server_module, "DRAIN_TIMEOUT", 0.5)
    system.server.drain_and_restart()
    for thread in threads:
        thread.join()

    assert errors_seen == [], errors_seen
    assert _rows(system) == [(i, ops) for i in range(clients)]
    stats = system.registry.server
    assert stats.drains_started == stats.drains_completed == 1
    assert stats.sessions_ridden_through >= 1
    assert stats.max_pause_seconds > 0.0
    for connection in connections:
        connection.close()


# ------------------------------------------------------------ drain barrier


def test_graceful_drain_waits_for_inflight_statement(system):
    _make_table(system)
    entered, release = threading.Event(), threading.Event()
    original = system.server.execute

    def slow_execute(session_id, sql, **kwargs):
        # Phoenix ships DML wrapped in its status-table transaction, so
        # match the statement anywhere in the script
        if "UPDATE pr" in sql:
            entered.set()
            release.wait(5.0)
        return original(session_id, sql, **kwargs)

    system.server.execute = slow_execute
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    client = threading.Thread(
        target=cursor.execute, args=("UPDATE pr SET v = v + 1 WHERE k = 0",)
    )
    client.start()
    assert entered.wait(5.0)

    drainer = threading.Thread(target=system.server.drain_and_restart)
    drainer.start()
    time.sleep(0.05)
    # the drain must be parked behind the in-flight statement, not past it
    assert drainer.is_alive()
    assert system.server.lifecycle == "draining"
    assert system.registry.server.drains_completed == 0

    release.set()
    drainer.join(5.0)
    client.join(5.0)
    assert not drainer.is_alive() and not client.is_alive()
    # the statement ran to completion *before* the checkpoint + swap, so
    # its effect is durable in the swapped-in engine
    assert _rows(system) == [(0, 1)]
    connection.close()


def test_deadline_drain_bounces_lock_waiter_retryably(system, monkeypatch):
    _make_table(system)
    # a raw engine session holds the row lock in an open transaction
    holder = system.server.connect(user="holder")
    system.server.execute(holder, "BEGIN TRANSACTION")
    system.server.execute(holder, "UPDATE pr SET v = 99 WHERE k = 0")

    monkeypatch.setattr(recovery, "PING_JITTER", 0.0)
    monkeypatch.setattr(recovery, "PING_INTERVAL", 0.005)
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    waits_before = system.registry.locks.waits
    client = threading.Thread(
        target=cursor.execute, args=("UPDATE pr SET v = v + 1 WHERE k = 0",)
    )
    client.start()
    deadline = time.monotonic() + 5.0
    while system.registry.locks.waits == waits_before:
        assert time.monotonic() < deadline, "client never reached the lock wait"
        time.sleep(0.001)

    monkeypatch.setattr(server_module, "DRAIN_TIMEOUT", 0.02)
    system.server.drain_and_restart()
    client.join(5.0)
    assert not client.is_alive()

    # the waiter was bounced (deadlock-victim style), recovered, retried —
    # and the holder's never-committed transaction died with its session
    assert system.registry.locks.drain_bounces >= 1
    assert system.registry.server.statements_bounced >= 1
    assert connection.stats.recoveries >= 1
    assert _rows(system) == [(0, 1)]
    connection.close()


# ------------------------------------------------------------- parked connect


def _spawn(failures: list[str], fn, *args) -> threading.Thread:
    """Run ``fn(*args)`` on a thread of its own; an exception it raises is
    recorded in ``failures``."""

    def body() -> None:
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 — reported by the caller
            failures.append(f"{type(exc).__name__}: {exc}")

    thread = threading.Thread(target=body)
    thread.start()
    return thread


def _begin_held_drain(system, failures: list[str]):
    """Start ``drain_and_restart`` on a thread of its own and hold it open:
    a Phoenix session's statement on row 1 is in flight when the drain
    begins and runs until the returned event is set.

    Returns ``(release, threads, holder)``; ``threads`` are the holder's
    statement and the drain, to be joined after ``release.set()``.
    """
    holder = system.phoenix.connect(system.DSN)
    entered, release = threading.Event(), threading.Event()
    original = system.server.execute

    def slow_execute(session_id, sql, **kwargs):
        if "k = 1" in sql:
            entered.set()
            release.wait(5.0)
        return original(session_id, sql, **kwargs)

    system.server.execute = slow_execute
    holding = _spawn(failures, holder.cursor().execute, "UPDATE pr SET v = v + 1 WHERE k = 1")
    assert entered.wait(5.0)
    draining = _spawn(failures, system.server.drain_and_restart)
    deadline = time.monotonic() + 5.0
    while system.server.lifecycle != "draining":
        assert time.monotonic() < deadline, "the drain never began"
        time.sleep(0.001)
    return release, [holding, draining], holder


def _wait_for_parked(system, count: int) -> None:
    deadline = time.monotonic() + 5.0
    while len(system.server.dispatcher.keys_with_pending()) < count:
        assert time.monotonic() < deadline, "the request never parked behind the barrier"
        time.sleep(0.001)


def connect_parks_behind_drain(system, driver) -> None:
    """A connect issued after ``begin_drain`` parks behind the barrier like
    any request, and the swapped-in engine answers it with one
    ``ConnectRequest`` — no RESTARTING round trip, no backoff — while a
    Phoenix session parked beside it rebuilds in one connect.

    ``driver`` is a native driver of the test's own (its counts are the
    parked connect's alone); ``tests/test_tcp.py`` runs this over the
    socket.  The drain runs on a thread of its own, and every connect and
    statement issued mid drain on another: one issued on the thread that
    holds the drain would park forever.
    """
    _make_table(system, rows=2)
    rider = system.phoenix.connect(system.DSN)
    rider_cursor = rider.cursor()
    rider_cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    failures: list[str] = []
    opened = []

    release, threads, holder = _begin_held_drain(system, failures)
    connects = system.registry.network.by_request_type["ConnectRequest"]
    connecting = _spawn(failures, lambda: opened.append(driver.connect("parked")))
    riding = _spawn(failures, rider_cursor.execute, "UPDATE pr SET v = v + 1 WHERE k = 0")
    # the holder's session is running; the connect and the rider wait
    _wait_for_parked(system, 3)
    assert connecting.is_alive() and opened == [] and failures == []

    release.set()
    for thread in (*threads, connecting, riding):
        thread.join(5.0)
        assert not thread.is_alive()
    assert failures == []
    assert system.registry.server.drains_completed == 1
    # answered by the swapped-in engine (the swap ended every older session)
    [parked] = opened
    assert parked.session_id in system.server.sessions
    assert driver.metrics.by_request_type["ConnectRequest"] == 1
    assert not driver.metrics.errors_by_request_type
    # the rider rebuilt in one connect, without a single retried ping
    assert rider.stats.recoveries == 1 and rider.stats.recovery_pings == 0
    assert system.registry.network.by_request_type["ConnectRequest"] == connects + 1
    assert _rows(system) == [(0, 2), (1, 1)]
    parked.disconnect()
    rider.close()
    holder.close()


def test_connect_mid_drain_parks_until_the_swapped_in_engine_answers(system):
    connect_parks_behind_drain(system, repro.NativeDriver(system.transport))


def test_session_parked_by_drain_recovers_without_backoff(system, monkeypatch):
    """A Phoenix session whose statement parks behind a planned restart's
    barrier recovers on the swapped-in engine at once: its first connect
    succeeds, so it never pings again and never sleeps a backoff step.
    A ping interval far above the join timeout makes any backoff fail the
    test rather than only slow it."""
    monkeypatch.setattr(recovery, "PING_JITTER", 0.0)
    monkeypatch.setattr(recovery, "PING_INTERVAL", 30.0)
    _make_table(system, rows=2)
    rider = system.phoenix.connect(system.DSN)
    rider_cursor = rider.cursor()
    rider_cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    failures: list[str] = []

    release, threads, holder = _begin_held_drain(system, failures)
    riding = _spawn(failures, rider_cursor.execute, "UPDATE pr SET v = v + 1 WHERE k = 0")
    _wait_for_parked(system, 2)
    assert riding.is_alive() and failures == []

    release.set()
    for thread in (*threads, riding):
        thread.join(5.0)
        assert not thread.is_alive()
    assert failures == []
    assert rider.stats.recoveries == 1
    assert rider.stats.recovery_pings == 0
    # the parked statement ran once, on the swapped-in engine
    assert _rows(system) == [(0, 2), (1, 1)]
    rider.close()
    holder.close()


# ------------------------------------------------------------- chaos: drain


def test_crash_mid_drain_schedules_recover_exactly_once():
    from repro.chaos import ChaosExplorer
    from repro.net.faults import DRAIN_FAULTS

    explorer = ChaosExplorer(seed=7)
    report = explorer.sweep(DRAIN_FAULTS, stride=16)
    assert report.runs > 0
    assert report.recovered_fraction == 1.0, report.summary()


def test_crash_after_begin_drain_recovers(system):
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    cursor = connection.cursor()
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")

    system.server.begin_drain()
    system.server.crash()  # the process dies mid-drain
    assert system.server.lifecycle == "running"  # crash() tears the barrier down

    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    cursor.execute("SELECT v FROM pr WHERE k = 0")
    assert cursor.fetchall() == [(2,)]
    connection.close()


# ------------------------------------------------------------------ metrics


def test_drain_stats_surface_in_registry_snapshot(system, monkeypatch):
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    connection.cursor().execute("SELECT v FROM pr WHERE k = 0")
    monkeypatch.setattr(server_module, "DRAIN_TIMEOUT", 0.0)
    system.server.drain_and_restart()

    section = system.registry.snapshot()["server"]
    assert section["drains_started"] == 1
    assert section["drains_completed"] == 1
    assert section["sessions_ridden_through"] >= 1
    assert section["statements_bounced"] == 0
    assert section["max_pause_seconds"] > 0.0
    connection.close()


def test_drain_stats_reset_with_registry(system):
    system.server.drain_and_restart()
    system.registry.reset()
    assert system.registry.server.snapshot() == DrainStats().snapshot()


def test_drain_stats_cumulative_across_restarts(system):
    for _ in range(3):
        system.server.drain_and_restart()
    assert system.registry.server.drains_completed == 3
    assert system.server.stats.restarts == 3
