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
