"""Ablation A4 — what the DML status-table wrapper buys.

Paper §3, Data Modification Statements: "the primary overhead for data
modification statements is the creation of a transaction and a write to
the status table."  Table 1 found that overhead negligible (<0.5%); what a
wrapped statement costs here is ``dml_p50_ms`` and the Phoenix ÷ plain
ratio of ``benchmarks/e2e/run.py --workload oltp_point``.  This file shows
what the wrapper *buys*: exactly-once semantics across a lost commit reply,
which an unwrapped statement cannot have (there is no unwrapped mode to
configure: the plain driver manager is that alternative).
"""

from __future__ import annotations

import repro
from repro.net import FaultKind


def test_wrapper_buys_exactly_once():
    """With the wrapper, a lost commit reply is resolved via the status
    table probe — the statement applies exactly once.  Without it, a
    driver could only re-execute blindly; for this INSERT that would surface
    as a duplicate-key error reaching the application."""
    system = repro.make_system()
    loader = system.server.connect()
    system.server.execute(loader, "CREATE TABLE t (k INT PRIMARY KEY)")
    system.server.disconnect(loader)
    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: (
        system.endpoint.restart_server() if not system.server.up else None
    )
    cursor = connection.cursor()
    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "INSERT INTO t")
    cursor.execute("INSERT INTO t VALUES (1)")
    assert cursor.rowcount == 1
    cursor.execute("SELECT count(*) AS n FROM t")
    assert cursor.fetchone() == (1,)
    assert connection.stats.probe_hits == 1
    connection.close()


def test_wrapped_dml_compiles_two_plans_per_database():
    """The wrapper makes each application DML two statements — the DML and
    the status insert — and the engine plans each once per database: N
    wrapped executions compile 2 plans, however large N, and after a
    restart (a new database) a new session compiles them again, once."""
    system = repro.make_system()
    loader = system.server.connect()
    system.server.execute(loader, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    system.server.execute(loader, "INSERT INTO t VALUES (1, 0), (2, 0)")
    system.server.disconnect(loader)
    stats = system.server.executor_stats
    for k, restart in ((1, False), (2, True)):
        if restart:
            system.server.crash()
            system.server.restart()
        connection = repro.connect(system)
        cursor = connection.cursor()
        for executions in (1, 25):
            before = stats.compiled_plans
            for _ in range(executions):
                cursor.execute("UPDATE t SET v = v + 1 WHERE k = ?", [k])
                assert cursor.rowcount == 1
            assert stats.compiled_plans - before == (2 if executions == 1 else 0)
        connection.close()
    cursor = repro.connect(system, phoenix=False).cursor()
    assert cursor.execute("SELECT v FROM t ORDER BY k").fetchall() == [(26,), (26,)]
