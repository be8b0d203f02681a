"""Faults during recovery itself, and the adaptive ping backoff.

Recovery is the one code path that *must* work while everything around it
is failing.  These tests aim faults at the recovery machinery directly:
pings that die, crashes between the two recovery phases, a second crash in
the middle of transaction replay — plus the backoff and jitter behaviour of
``_await_server`` (its bounds are ``repro.core.recovery`` constants, which
the tests here monkeypatch).
"""

from __future__ import annotations

import pytest

from repro.core import recovery
from repro.core.config import PhoenixConfig
from repro.errors import (
    CommunicationError,
    RecoveryError,
    ServerCrashedError,
    TimeoutError,
)
from repro.net import FaultKind


def crash_restart(system):
    system.server.crash()
    system.endpoint.restart_server()


# ----------------------------------------------------------------- backoff

@pytest.fixture()
def ping_loop(monkeypatch):
    """``set(NAME=value, …)`` overrides the ping loop's module constants in
    ``repro.core.recovery`` for the test; ``config()`` is a
    :class:`PhoenixConfig` whose sleep records every wait instead of
    sleeping, into the returned list."""

    class Loop:
        @staticmethod
        def set(**constants) -> None:
            for name, value in constants.items():
                monkeypatch.setattr(recovery, name, value)

        @staticmethod
        def config() -> tuple[PhoenixConfig, list[float]]:
            waits: list[float] = []
            return PhoenixConfig(sleep=waits.append), waits

    return Loop


def test_ping_backoff_is_exponential_and_capped(system, ping_loop):
    ping_loop.set(
        PING_INTERVAL=1.0, PING_BACKOFF_FACTOR=2.0, PING_MAX_INTERVAL=8.0,
        PING_JITTER=0.0, MAX_PING_ATTEMPTS=6,
    )
    config, waits = ping_loop.config()
    connection = system.phoenix.connect(system.DSN, config=config)
    system.server.crash()
    cause = CommunicationError("boom")
    with pytest.raises(CommunicationError) as excinfo:
        connection.recovery._await_server(cause)
    assert excinfo.value is cause  # the original error surfaces, per paper
    assert waits == [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]
    assert connection.stats.recovery_pings == 6


def test_ping_backoff_jitter_is_deterministic_and_bounded(system, ping_loop):
    ping_loop.set(
        PING_INTERVAL=1.0, PING_BACKOFF_FACTOR=2.0, PING_MAX_INTERVAL=4.0,
        PING_JITTER=0.25, MAX_PING_ATTEMPTS=5,
    )

    def run(connection) -> list[float]:
        config, waits = ping_loop.config()
        connection.config = config
        connection.recovery = recovery.PhoenixRecovery(connection)  # a fresh stream
        system.server.crash()
        with pytest.raises(CommunicationError):
            connection.recovery._await_server(CommunicationError("x"))
        system.endpoint.restart_server()
        return waits

    one, other = (system.phoenix.connect(system.DSN) for _ in range(2))
    first, second, third = run(one), run(one), run(other)
    assert first == second  # same connection, same schedule
    assert first != third
    for wait, base in zip(first + third, [1.0, 2.0, 4.0, 4.0, 4.0] * 2):
        assert base * 0.75 <= wait <= base * 1.25  # jitter stays in ±25%


def test_reconnect_jitter_is_seeded_per_connection(system):
    """A fleet of connections must not wait in lock-step after one crash:
    each draws its own jitter stream (seeded by its client id, so one run
    of a schedule repeats exactly)."""
    connections = [system.phoenix.connect(system.DSN) for _ in range(2)]
    first, second = ([c.recovery._jittered(1.0) for _ in range(3)] for c in connections)
    assert first != second
    again = recovery.PhoenixRecovery(connections[0])
    assert [again._jittered(1.0) for _ in range(3)] == first


def test_a_flat_backoff_spends_the_whole_ping_budget(system, ping_loop):
    """With a backoff factor of 1 the loop is the paper's fixed-interval
    ping: every attempt of the budget waits the same, then the error goes
    to the application."""
    ping_loop.set(
        PING_INTERVAL=0.5, PING_BACKOFF_FACTOR=1.0, PING_JITTER=0.0, MAX_PING_ATTEMPTS=7
    )
    config, waits = ping_loop.config()
    connection = system.phoenix.connect(system.DSN, config=config)
    system.server.crash()
    with pytest.raises(CommunicationError):
        connection.recovery._await_server(CommunicationError("down"))
    assert waits == [0.5] * 7


def test_await_server_returns_after_restart_mid_backoff(system, ping_loop):
    ping_loop.set(PING_JITTER=0.0, MAX_PING_ATTEMPTS=10)
    restores: list[float] = []

    def sleep(seconds: float) -> None:
        restores.append(seconds)
        if len(restores) == 3:
            system.endpoint.restart_server()

    connection = system.phoenix.connect(system.DSN, config=PhoenixConfig(sleep=sleep))
    system.server.crash()
    connection.recovery._await_server(CommunicationError("down"))  # no raise
    assert len(restores) == 3


# ------------------------------------------------- faults during recovery

@pytest.fixture()
def ready(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1), (2), (3)")
    return system, phoenix_conn, cur


def test_drop_connection_on_recovery_ping(ready):
    system, conn, cur = ready
    crash_restart(system)
    # the recovery ping itself meets a dropped connection; the next ping
    # attempt (after backoff) succeeds and recovery completes normally
    system.faults.schedule(FaultKind.DROP_CONNECTION, matcher=_is_ping)
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (3,)
    assert conn.stats.recoveries == 1
    assert conn.stats.recovery_pings >= 1


def test_crash_between_recovery_phases(ready):
    system, conn, cur = ready
    crash_restart(system)
    # phase 1 rebuilds the session (a ConnectRequest, then the recipe);
    # crash the server again on the recipe's status-table statement —
    # recovery restarts wholesale and still converges
    system.faults.schedule_on_sql(
        FaultKind.CRASH_BEFORE_EXECUTE, "CREATE TABLE IF NOT EXISTS"
    )
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (3,)
    assert conn.stats.recoveries == 1


def test_second_crash_mid_transaction_replay(ready):
    system, conn, cur = ready
    conn.begin()
    cur.execute("UPDATE t SET k = 10 WHERE k = 1")
    crash_restart(system)
    # the replayed UPDATE meets another crash; replay restarts from scratch
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "UPDATE t")
    conn.commit()
    cur.execute("SELECT k FROM t ORDER BY k")
    assert [r[0] for r in cur.fetchall()] == [2, 3, 10]  # applied exactly once


def test_max_recovery_attempts_bounds_repeated_crashes(system, ping_loop):
    ping_loop.set(MAX_RECOVERY_ATTEMPTS=3, MAX_PING_ATTEMPTS=2)
    config = PhoenixConfig(
        sleep=lambda _s: system.endpoint.restart_server() if not system.server.up else None
    )
    connection = system.phoenix.connect(system.DSN, config=config)
    cur = connection.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    # every rebuilt connection dies immediately, forever
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, repeat=True)
    with pytest.raises((RecoveryError, CommunicationError)):
        cur.execute("INSERT INTO t VALUES (1)")
    # bounded: no completed recovery, and the loop stopped (we got here)
    assert connection.stats.recoveries == 0


def test_recovery_error_carries_causal_chain(system, ping_loop):
    ping_loop.set(MAX_RECOVERY_ATTEMPTS=2, MAX_PING_ATTEMPTS=1)
    config = PhoenixConfig(
        sleep=lambda _s: system.endpoint.restart_server() if not system.server.up else None
    )
    connection = system.phoenix.connect(system.DSN, config=config)
    cur = connection.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, repeat=True)
    with pytest.raises(Exception) as excinfo:
        cur.execute("INSERT INTO t VALUES (1)")
    chain = []
    exc: BaseException | None = excinfo.value
    while exc is not None:
        chain.append(type(exc))
        exc = exc.__cause__
    # whatever the outermost type, a concrete wire error must be in the chain
    assert any(
        issubclass(t, (CommunicationError, ServerCrashedError)) for t in chain
    ), chain


def test_hang_mid_recovery_is_survivable(ready):
    system, conn, cur = ready
    crash_restart(system)
    system.faults.schedule(FaultKind.HANG, matcher=_is_ping)
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (3,)


def _is_ping(request) -> bool:
    return type(request).__name__ == "PingRequest"
