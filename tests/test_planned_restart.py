"""Planned restarts: drain, engine swap, and client ride-through.

The paper only covers *unplanned* failure (DESIGN.md §5b); these tests pin
the planned-maintenance path built on the same recovery machinery:

* ``drain_and_restart`` under a 16-client workload completes with zero
  client-visible errors and exactly-once effects (the PR's acceptance
  line);
* the drain barrier parks new work, graceful drains wait out in-flight
  statements, deadline drains bounce lock waiters retryably;
* pings answered ``RESTARTING`` reset the driver's backoff to a flat
  cadence instead of inheriting crash-tuned exponential intervals;
* ``reap_sessions`` spares sessions parked behind the drain barrier;
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
from repro.engine.server import DrainStats, RestartPolicy
from repro.errors import OperationalError, ServerRestartingError


def _lift_drain(server) -> None:
    """Manually end a drain a test started with ``begin_drain`` (the test
    stands in for the swap half of ``drain_and_restart``)."""
    server.lifecycle = "running"
    server._restart_deadline = None
    server.dispatcher.resume()


def _make_table(system, rows: int = 1) -> None:
    loader = system.server.connect(user="loader")
    system.server.execute(loader, "CREATE TABLE pr (k INT PRIMARY KEY, v INT)")
    for i in range(rows):
        system.server.execute(loader, f"INSERT INTO pr VALUES ({i}, 0)")
    system.server.disconnect(loader)


def _rows(system) -> list[tuple]:
    checker = system.server.connect(user="checker")
    data = system.server.execute(checker, "SELECT k, v FROM pr ORDER BY k")
    rows = data.result_set.rows
    system.server.disconnect(checker)
    return rows


# ------------------------------------------------------------- policy object


def test_restart_policy_rejects_unknown_mode():
    with pytest.raises(ValueError):
        RestartPolicy(mode="yolo")


def test_restart_policy_defaults():
    policy = RestartPolicy()
    assert policy.mode == "deadline"
    assert policy.drain_timeout > 0


# ------------------------------------------------------- basic ride-through


def test_single_session_rides_through_planned_restart(system):
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")

    report = system.endpoint.drain_and_restart(
        RestartPolicy(mode="deadline", drain_timeout=0.2)
    )
    assert report is not None
    assert system.server.up and system.server.lifecycle == "running"

    # the very next statement triggers session recovery, then succeeds
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    cursor.execute("SELECT v FROM pr WHERE k = 0")
    assert cursor.fetchall() == [(2,)]
    assert connection.stats.recoveries == 1
    connection.close()


def test_drain_and_restart_uses_default_policy(system):
    _make_table(system)
    system.endpoint.drain_and_restart()
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
    system.endpoint.drain_and_restart()
    before = (metrics.parse_misses, metrics.plan_misses, metrics.plan_hits)
    system.server.execute(system.server.connect(), sql)
    assert (metrics.parse_misses, metrics.plan_misses, metrics.plan_hits) == (
        before[0] + 1, before[1] + 1, before[2]
    )


def test_endpoint_epoch_bumps_on_planned_restart(system):
    before = system.endpoint.epoch
    system.endpoint.drain_and_restart()
    assert system.endpoint.epoch == before + 1


def test_begin_drain_while_draining_raises(system):
    system.server.begin_drain()
    try:
        with pytest.raises(OperationalError):
            system.server.begin_drain()
    finally:
        _lift_drain(system.server)


# ------------------------------------------------ the 16-client acceptance


def test_drain_under_16_clients_zero_errors(system):
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
    system.endpoint.drain_and_restart(RestartPolicy(mode="deadline", drain_timeout=0.5))
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

    drainer = threading.Thread(
        target=system.endpoint.drain_and_restart,
        args=(RestartPolicy(mode="graceful"),),
    )
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

    system.endpoint.drain_and_restart(RestartPolicy(mode="deadline", drain_timeout=0.02))
    client.join(5.0)
    assert not client.is_alive()

    # the waiter was bounced (deadlock-victim style), recovered, retried —
    # and the holder's never-committed transaction died with its session
    assert system.registry.locks.drain_bounces >= 1
    assert system.registry.server.statements_bounced >= 1
    assert connection.stats.recoveries >= 1
    assert _rows(system) == [(0, 1)]
    connection.close()


# --------------------------------------------------- RESTARTING advertising


def test_ping_advertises_restarting_during_drain(system):
    policy = RestartPolicy(mode="deadline", drain_timeout=30.0)
    system.server.begin_drain(policy)
    try:
        with pytest.raises(ServerRestartingError) as info:
            system.native.ping()
        assert info.value.state == "draining"
        assert 0.0 < info.value.eta_seconds <= 30.0
    finally:
        _lift_drain(system.server)
    # barrier lifted: the same probe now pongs
    assert system.native.ping() is not None


def test_recovery_backoff_resets_on_restarting_advertisement(system, monkeypatch):
    """Satellite: crash-tuned exponential backoff must flatten back to the
    base cadence the moment the server says RESTARTING."""
    _make_table(system)
    monkeypatch.setattr(recovery, "PING_JITTER", 0.0)
    base = recovery.PING_INTERVAL
    connection = system.phoenix.connect(system.DSN)
    sleeps: list[float] = []

    def scripted_sleep(seconds: float) -> None:
        sleeps.append(seconds)
        if len(sleeps) == 2:
            # the process is back mid planned restart: up, barrier still on
            system.endpoint.restart_server()
            system.server.lifecycle = "draining"
        elif len(sleeps) == 4:
            system.server.lifecycle = "running"

    connection.config.sleep = scripted_sleep
    cursor = connection.cursor()
    system.server.crash()
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")

    # two crash pings back off (base, 2*base); the RESTARTING answers reset
    # the interval to base and hold it flat
    assert sleeps == [base, base * 2, base, base]
    cursor.execute("SELECT v FROM pr WHERE k = 0")
    assert cursor.fetchall() == [(1,)]
    connection.close()


# --------------------------------------------------------------- reap guard


def test_reap_spares_sessions_parked_behind_drain_barrier(system):
    """Satellite regression: a drain under 16 idle-looking clients loses no
    sessions to the reaper — parked requests prove the client is alive."""
    clients = 16
    _make_table(system, rows=clients)
    connections = [
        system.phoenix.connect(system.DSN, user=f"r{i}") for i in range(clients)
    ]
    cursors = [c.cursor() for c in connections]
    for i, cursor in enumerate(cursors):
        cursor.execute(f"SELECT v FROM pr WHERE k = {i}")

    system.server.begin_drain(RestartPolicy(mode="deadline", drain_timeout=30.0))
    threads = [
        threading.Thread(
            target=cursors[i].execute, args=(f"UPDATE pr SET v = v + 1 WHERE k = {i}",)
        )
        for i in range(clients)
    ]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 5.0
    while len(system.server.dispatcher.keys_with_pending()) < clients:
        assert time.monotonic() < deadline, "clients never parked behind the barrier"
        time.sleep(0.001)

    # every session's last activity predates this cutoff, so an unguarded
    # reaper would disconnect every one of them mid-pause — including the
    # 16 app sessions whose UPDATE is parked behind the barrier
    parked = system.server.dispatcher.keys_with_pending()
    cutoff = system.server.activity_epoch + 1
    reaped = system.server.reap_sessions(older_than_epoch=cutoff)
    app_sessions = {c.app.session_id for c in connections}
    assert set(reaped).isdisjoint(parked)
    assert set(reaped).isdisjoint(app_sessions), "reaper killed a parked session"
    assert app_sessions <= set(system.server.sessions)

    _lift_drain(system.server)
    for thread in threads:
        thread.join(5.0)
        assert not thread.is_alive()
    # zero sessions lost from the clients' side: every parked UPDATE landed
    # exactly once, with no recovery forced by the reaper
    assert _rows(system) == [(i, 1) for i in range(clients)]
    assert sum(c.stats.recoveries for c in connections) == 0
    for connection in connections:
        connection.close()


# ------------------------------------------------------------- chaos: drain


def test_crash_mid_drain_schedules_recover_exactly_once():
    from repro.chaos import ChaosExplorer

    explorer = ChaosExplorer(seed=7)
    report = explorer.sweep_drain_faults(stride=16)
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


def test_drain_stats_surface_in_registry_snapshot(system):
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    connection.cursor().execute("SELECT v FROM pr WHERE k = 0")
    system.endpoint.drain_and_restart(RestartPolicy(mode="immediate"))

    section = system.registry.snapshot()["server"]
    assert section["drains_started"] == 1
    assert section["drains_completed"] == 1
    assert section["sessions_ridden_through"] >= 1
    assert section["statements_bounced"] == 0
    assert section["max_pause_seconds"] > 0.0
    connection.close()


def test_drain_stats_reset_with_registry(system):
    system.endpoint.drain_and_restart()
    system.registry.reset()
    assert system.registry.server.snapshot() == DrainStats().snapshot()


def test_drain_stats_cumulative_across_restarts(system):
    for _ in range(3):
        system.endpoint.drain_and_restart()
    assert system.registry.server.drains_completed == 3
    assert system.server.stats.restarts == 3
