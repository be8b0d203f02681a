"""Planned restarts: one engine swap under the engine mutex, and client
ride-through.

The paper only covers *unplanned* failure (DESIGN.md §5b); these tests pin
the planned-maintenance path built on the same recovery machinery:

* ``drain_and_restart`` under a 16-client workload completes with zero
  client-visible errors and exactly-once effects;
* the swap holds the engine mutex from start to finish: a statement or
  batch holding the mutex finishes first, a request that arrives meanwhile
  waits — a connect too, which the swapped-in engine answers on the first
  try, even between the teardown and the fresh boot, since the server never
  reports down — and a lock waiter is evicted as at a crash, its client
  riding through;
* crashes *during* a swap recover exactly-once like any other crash (chaos
  sweep);
* swap counters surface in ``MetricsRegistry.snapshot()["server"]``.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro
from repro.core import recovery
from repro.engine import server as engine_server
from repro.engine.server import DrainStats
from repro.errors import CommunicationError, ServerCrashedError


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
    assert system.server.up

    # the very next statement triggers session recovery, then succeeds
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    cursor.execute("SELECT v FROM pr WHERE k = 0")
    assert cursor.fetchall() == [(2,)]
    assert connection.stats.recoveries == 1
    connection.close()


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
    system.server.drain_and_restart()
    for thread in threads:
        thread.join()

    assert errors_seen == [], errors_seen
    assert _rows(system) == [(i, ops) for i in range(clients)]
    stats = system.registry.server
    assert stats.swaps_completed == 1
    assert stats.sessions_ridden_through >= 1
    assert stats.max_pause_seconds > 0.0
    for connection in connections:
        connection.close()


# ------------------------------------------------------ one mutex, one swap


def _hold_mutex_in(system, method: str, entered, release) -> None:
    """Make ``system.server.<method>`` take the engine mutex, then wait for
    ``release`` before it runs: the call is *in flight* — it holds the
    engine — when a swap begins."""
    original = getattr(system.server, method)

    def held(*args, **kwargs):
        with system.server._engine_mutex:
            entered.set()
            release.wait(5.0)
            return original(*args, **kwargs)

    setattr(system.server, method, held)


def test_graceful_drain_waits_for_inflight_statement(system):
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    entered, release = threading.Event(), threading.Event()
    _hold_mutex_in(system, "execute", entered, release)
    client = threading.Thread(
        target=cursor.execute, args=("UPDATE pr SET v = v + 1 WHERE k = 0",)
    )
    client.start()
    assert entered.wait(5.0)

    drainer = threading.Thread(target=system.server.drain_and_restart)
    drainer.start()
    time.sleep(0.05)
    # the swap waits for the statement that holds the engine mutex
    assert drainer.is_alive()
    assert system.registry.server.swaps_completed == 0

    release.set()
    drainer.join(5.0)
    client.join(5.0)
    assert not drainer.is_alive() and not client.is_alive()
    # the statement ran to completion *before* the checkpoint + swap, so
    # its effect is durable in the swapped-in engine
    assert _rows(system) == [(0, 1)]
    assert connection.stats.recoveries == 0
    connection.close()


def test_swap_evicts_lock_waiter_whose_client_rides_through(system, monkeypatch):
    """A statement asleep in a lock wait is the one statement that does not
    hold the engine mutex: the swap evicts it at once, as a crash does.  It
    wakes on the dead engine and writes nothing; its client rides through
    and the replay lands exactly once."""
    _make_table(system)
    # a raw engine session holds the row lock in an open transaction
    holder = system.server.connect(user="holder")
    system.server.execute(holder, "BEGIN TRANSACTION")
    system.server.execute(holder, "UPDATE pr SET v = 99 WHERE k = 0")

    monkeypatch.setattr(recovery, "PING_JITTER", 0.0)
    monkeypatch.setattr(recovery, "PING_INTERVAL", 0.005)
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    cursor.execute("SET lock_timeout 5000")  # waits outlast the swap
    waits_before = system.registry.locks.waits
    client = threading.Thread(
        target=cursor.execute, args=("UPDATE pr SET v = v + 1 WHERE k = 0",)
    )
    client.start()
    deadline = time.monotonic() + 5.0
    while system.registry.locks.waits == waits_before:
        assert time.monotonic() < deadline, "client never reached the lock wait"
        time.sleep(0.001)

    system.server.drain_and_restart()
    client.join(5.0)
    assert not client.is_alive()

    # the waiter was evicted, recovered, retried — and the holder's
    # never-committed transaction died with its session
    assert system.registry.server.waiters_evicted >= 1
    assert connection.stats.recoveries == 1
    assert _rows(system) == [(0, 1)]
    connection.close()


def test_a_swap_never_lands_inside_a_connect(system):
    """Reap, session open and recipe are one engine-mutex hold: a swap that
    begins while a connect's recipe runs waits for the whole connect, so
    the session it ends is a finished one, never a half-built one."""
    _make_table(system)
    entered, release = threading.Event(), threading.Event()
    original = system.server.execute

    def held_recipe(session_id, sql, **kwargs):
        if "recipe" in sql:
            entered.set()
            release.wait(5.0)
        return original(session_id, sql, **kwargs)

    system.server.execute = held_recipe
    driver = repro.NativeDriver(system.transport)
    failures: list[str] = []
    opened = []
    connecting = _spawn(
        failures,
        lambda: opened.append(driver.connect("c", recipe="SELECT 1 AS recipe FROM pr")),
    )
    assert entered.wait(5.0)
    swapping = _spawn(failures, system.server.drain_and_restart)
    time.sleep(0.05)
    assert swapping.is_alive()  # waits for the whole connect
    assert system.registry.server.swaps_completed == 0

    release.set()
    for thread in (connecting, swapping):
        thread.join(5.0)
        assert not thread.is_alive()
    assert failures == []
    [connection] = opened
    assert connection.opened.result.rows == [(1,)]  # the recipe ran in the session
    assert system.registry.server.sessions_ridden_through == 1
    assert connection.session_id not in system.server.sessions


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


def _hold_swap_open(system, failures: list[str], at: str = "checkpoint"):
    """Start ``drain_and_restart`` on a thread of its own and hold it open
    inside the engine mutex until the returned event is set: in its
    checkpoint (``at="checkpoint"``, the old engine still installed), or in
    the fresh engine's restart recovery (``at="boot"``, after the teardown,
    with no engine installed at all).  The server reports up either way.
    Returns ``(release, thread)``."""
    entered, release = threading.Event(), threading.Event()
    owner, name = {
        "checkpoint": (system.server.database, "checkpoint"),
        "boot": (engine_server, "recover"),
    }[at]
    original = getattr(owner, name)

    def held(*args, **kwargs):
        setattr(owner, name, original)  # hold the first call only
        entered.set()
        release.wait(5.0)
        return original(*args, **kwargs)

    setattr(owner, name, held)
    swapping = _spawn(failures, system.server.drain_and_restart)
    assert entered.wait(5.0)
    assert system.server.up
    return release, swapping


def _wait_for_dispatched(system, count: int) -> None:
    """Wait until the dispatcher has taken ``count`` requests: past the
    held swap's start, each of them waits for the engine mutex."""
    deadline = time.monotonic() + 5.0
    while system.registry.dispatch.dispatched < count:
        assert time.monotonic() < deadline, "the request never reached the server"
        time.sleep(0.001)


def connect_waits_for_the_swap(system, driver, at: str = "checkpoint") -> None:
    """A connect issued while a swap holds the engine mutex waits for it
    like any request, and the swapped-in engine answers it with one
    ``ConnectRequest`` — no retry, no backoff — while a Phoenix session
    waiting beside it rebuilds in one connect.

    ``driver`` is a native driver of the test's own (its counts are the
    waiting connect's alone); ``at`` is where the swap is held
    (:func:`_hold_swap_open`); ``tests/test_tcp.py`` runs this over the
    socket.
    """
    _make_table(system)
    rider = system.phoenix.connect(system.DSN)
    rider_cursor = rider.cursor()
    rider_cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    failures: list[str] = []
    opened = []

    release, swapping = _hold_swap_open(system, failures, at)
    connects = system.registry.network.by_request_type["ConnectRequest"]
    dispatched = system.registry.dispatch.dispatched
    connecting = _spawn(failures, lambda: opened.append(driver.connect("parked")))
    riding = _spawn(failures, rider_cursor.execute, "UPDATE pr SET v = v + 1 WHERE k = 0")
    _wait_for_dispatched(system, dispatched + 2)
    assert connecting.is_alive() and opened == [] and failures == []

    release.set()
    for thread in (swapping, connecting, riding):
        thread.join(5.0)
        assert not thread.is_alive()
    assert failures == []
    assert system.registry.server.swaps_completed == 1
    # answered by the swapped-in engine (the swap ended every older session)
    [parked] = opened
    assert parked.session_id in system.server.sessions
    assert driver.metrics.by_request_type["ConnectRequest"] == 1
    assert not driver.metrics.errors_by_request_type
    # the rider rebuilt in one connect, without a single retried ping
    assert rider.stats.recoveries == 1 and rider.stats.recovery_pings == 0
    assert system.registry.network.by_request_type["ConnectRequest"] == connects + 1
    assert _rows(system) == [(0, 2)]
    parked.disconnect()
    rider.close()


def test_connect_mid_drain_parks_until_the_swapped_in_engine_answers(system):
    connect_waits_for_the_swap(system, repro.NativeDriver(system.transport))


def test_connect_during_the_swaps_boot_is_answered_on_the_first_try(system):
    """Between the teardown and the fresh engine's boot there is no engine,
    yet the server stays up: a connect that arrives then is not refused —
    it waits for the mutex like any request."""
    connect_waits_for_the_swap(system, repro.NativeDriver(system.transport), at="boot")


def test_session_waiting_on_the_swaps_boot_never_backs_off(system):
    """A Phoenix statement that arrives while the swap boots the fresh
    engine waits for it, then recovers in one connect.  Its backoff hook is
    the restart-a-down-server watchdog of the chaos suite: the server never
    reports down, so the hook is never called, and never races the swap
    into "server is already up"."""
    _make_table(system)
    rider = system.phoenix.connect(system.DSN)
    backoffs: list[bool] = []

    def watchdog(_seconds: float) -> None:
        backoffs.append(system.server.up)
        if not system.server.up:
            system.endpoint.restart_server()

    rider.config.sleep = watchdog
    rider_cursor = rider.cursor()
    rider_cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    failures: list[str] = []

    release, swapping = _hold_swap_open(system, failures, at="boot")
    dispatched = system.registry.dispatch.dispatched
    riding = _spawn(failures, rider_cursor.execute, "UPDATE pr SET v = v + 1 WHERE k = 0")
    _wait_for_dispatched(system, dispatched + 1)
    time.sleep(0.02)  # past the endpoint's up check, into the mutex wait
    assert system.server.up and system.server.database is None
    assert riding.is_alive() and failures == []

    release.set()
    for thread in (swapping, riding):
        thread.join(5.0)
        assert not thread.is_alive()
    assert failures == []
    assert backoffs == []
    assert rider.stats.recoveries == 1 and rider.stats.recovery_pings == 0
    assert system.registry.server.swaps_completed == 1
    assert _rows(system) == [(0, 2)]
    rider.close()


def test_session_parked_by_drain_recovers_without_backoff(system, monkeypatch):
    """A Phoenix session whose statement waits for a swap recovers on the
    swapped-in engine at once: its first connect succeeds, so it never
    pings again and never sleeps a backoff step.  A ping interval far
    above the join timeout makes any backoff fail the test rather than
    only slow it."""
    monkeypatch.setattr(recovery, "PING_JITTER", 0.0)
    monkeypatch.setattr(recovery, "PING_INTERVAL", 30.0)
    _make_table(system)
    rider = system.phoenix.connect(system.DSN)
    rider_cursor = rider.cursor()
    rider_cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    failures: list[str] = []

    release, swapping = _hold_swap_open(system, failures)
    dispatched = system.registry.dispatch.dispatched
    riding = _spawn(failures, rider_cursor.execute, "UPDATE pr SET v = v + 1 WHERE k = 0")
    _wait_for_dispatched(system, dispatched + 1)
    assert riding.is_alive() and failures == []

    release.set()
    for thread in (swapping, riding):
        thread.join(5.0)
        assert not thread.is_alive()
    assert failures == []
    assert rider.stats.recoveries == 1
    assert rider.stats.recovery_pings == 0
    # the waiting statement ran once, on the swapped-in engine
    assert _rows(system) == [(0, 2)]
    rider.close()


# ------------------------------------------------------------- chaos: drain


def test_crash_mid_drain_schedules_recover_exactly_once():
    from repro.chaos import ChaosExplorer
    from repro.net.faults import DRAIN_FAULTS

    explorer = ChaosExplorer(seed=7)
    report = explorer.sweep(DRAIN_FAULTS, stride=16)
    assert report.runs > 0
    assert report.recovered_fraction == 1.0, report.summary()


def test_crash_mid_swap_recovers(system):
    """The process dies inside the swap, after its checkpoint and before
    the fresh engine boots: the planned restart degrades into ordinary
    crash recovery, and the client rides through exactly once."""
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    cursor = connection.cursor()
    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    database = system.server.database
    checkpoint = database.checkpoint

    def dying_checkpoint():
        checkpoint()
        system.server.crash()
        raise ServerCrashedError("killed mid-swap")

    database.checkpoint = dying_checkpoint
    with pytest.raises(CommunicationError):
        system.server.drain_and_restart()
    assert not system.server.up
    assert system.registry.server.swaps_completed == 0

    cursor.execute("UPDATE pr SET v = v + 1 WHERE k = 0")
    cursor.execute("SELECT v FROM pr WHERE k = 0")
    assert cursor.fetchall() == [(2,)]
    assert connection.stats.recoveries == 1
    connection.close()


def test_a_swap_whose_boot_fails_leaves_the_server_down(system, monkeypatch):
    """The swap tears the old engine down before the fresh one boots, so a
    boot that fails (restart recovery cannot read the device) has no engine
    to fall back on: the server goes down as at a crash — never up with no
    engine — and a restart brings it back."""
    _make_table(system)

    def unreadable(*_args, **_kwargs):
        raise OSError("device unreadable")

    monkeypatch.setattr(engine_server, "recover", unreadable)
    crashes = system.server.stats.crashes
    with pytest.raises(OSError):
        system.server.drain_and_restart()
    assert not system.server.up
    assert system.server.stats.crashes == crashes + 1
    assert system.registry.server.swaps_completed == 0

    monkeypatch.undo()
    system.server.restart()
    assert _rows(system) == [(0, 0)]


# ------------------------------------------------------------------ metrics


def test_drain_stats_surface_in_registry_snapshot(system):
    _make_table(system)
    connection = system.phoenix.connect(system.DSN)
    connection.cursor().execute("SELECT v FROM pr WHERE k = 0")
    system.server.drain_and_restart()

    section = system.registry.snapshot()["server"]
    assert section["swaps_completed"] == 1
    assert section["sessions_ridden_through"] >= 1
    assert section["waiters_evicted"] == 0
    assert section["max_pause_seconds"] > 0.0
    connection.close()


def test_drain_stats_reset_with_registry(system):
    system.server.drain_and_restart()
    system.registry.reset()
    assert system.registry.server.snapshot() == DrainStats().snapshot()


def test_drain_stats_cumulative_across_restarts(system):
    for _ in range(3):
        system.server.drain_and_restart()
    assert system.registry.server.swaps_completed == 3
    assert system.server.stats.restarts == 3
