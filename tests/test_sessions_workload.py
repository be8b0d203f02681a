"""Tests for the session-trace workload and the availability harness."""

from __future__ import annotations

import pytest

import repro
from repro.net import FaultKind
from repro.workloads.sessions import (
    SessionOutcome,
    generate_traces,
    run_trace,
    setup_workload,
)


@pytest.fixture()
def prepared(system):
    loader = system.server.connect(user="loader")
    setup_workload(lambda sql: system.server.execute(loader, sql))
    system.server.disconnect(loader)
    return system


def test_traces_are_deterministic():
    assert generate_traces(5, seed=3) == generate_traces(5, seed=3)
    assert generate_traces(5, seed=3) != generate_traces(5, seed=4)


def test_trace_shape():
    trace = generate_traces(1)[0]
    kinds = [s.kind for s in trace.steps]
    assert kinds[0] == "query"
    assert "begin" in kinds and "commit" in kinds
    assert kinds.index("begin") < kinds.index("commit")


def test_audit_sequence_numbers_unique():
    traces = generate_traces(10)
    audit_sqls = [
        s.sql for t in traces for s in t.steps if "INSERT INTO audit" in s.sql
    ]
    assert len(set(audit_sqls)) == len(audit_sqls)


def test_trace_runs_clean_on_native(prepared):
    system = prepared
    connection = system.plain.connect(system.DSN)
    outcome = run_trace(connection, generate_traces(1)[0])
    connection.close()
    assert outcome.completed and outcome.error == ""


def test_trace_aborts_on_crash_native(prepared):
    system = prepared
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, after=2)
    connection = system.plain.connect(system.DSN)
    outcome = run_trace(connection, generate_traces(1)[0])
    assert not outcome.completed
    assert outcome.error in ("CommunicationError", "ServerCrashedError")
    assert outcome.steps_done < len(generate_traces(1)[0].steps)


def test_trace_completes_on_phoenix_despite_crash(prepared):
    system = prepared
    system.phoenix.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, after=8)
    connection = system.phoenix.connect(system.DSN)
    outcome = run_trace(connection, generate_traces(1)[0])
    connection.close()
    assert outcome.completed, outcome


def test_money_conserved_across_phoenix_sessions(prepared):
    """The transfer transactions must conserve total balance even with
    crashes sprinkled through the run (exactly-once evidence)."""
    system = prepared
    system.phoenix.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    loader = system.server.connect()
    before = system.server.execute(loader, "SELECT sum(balance) FROM accounts")
    system.server.disconnect(loader)
    system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE, every=17)
    for trace in generate_traces(6, seed=11):
        if not system.server.up:
            system.endpoint.restart_server()
        connection = system.phoenix.connect(system.DSN)
        outcome = run_trace(connection, trace)
        assert outcome.completed
        if not system.server.up:
            system.endpoint.restart_server()
        connection.close()
    # the periodic crash can land on the last close()'s disconnect requests
    # (which request an `every=17` hits depends on requests per statement)
    if not system.server.up:
        system.endpoint.restart_server()
    loader = system.server.connect()
    after = system.server.execute(loader, "SELECT sum(balance) FROM accounts")
    assert abs(before.rows[0][0] - after.rows[0][0]) < 1e-6


def test_periodic_fault_fires_every_n(system):
    from repro.net.protocol import ConnectRequest

    fired = []
    system.faults.schedule(FaultKind.HANG, every=3)
    for i in range(7):
        channel = system.transport.open_channel()
        try:
            channel.send(ConnectRequest())
            fired.append(False)
        except repro.errors.TimeoutError:
            fired.append(True)
    assert fired == [False, False, True, False, False, True, False]
