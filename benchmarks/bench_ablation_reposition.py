"""Ablation A3 — server-side vs client-side result repositioning.

Paper §4, Figure 2 discussion: recovery repositions the result "using a
stored procedure that advances to a specified tuple, hence advancing
through the result set on the server without passing tuples to the
client."  The ablation prices the alternative — re-fetch the whole
materialized result and discard the delivered prefix client-side — as one
plain-driver SELECT against the bytes of a real recovery.
"""

from __future__ import annotations

import repro
from repro.errors import CommunicationError

ROWS = 4_000
DELIVERED = 3_900  # deep into the result: repositioning cost is maximal


def _prepared_connection():
    system = repro.make_system()
    loader = system.server.connect()
    system.server.execute(loader, "CREATE TABLE rep_rows (k INT PRIMARY KEY, v FLOAT)")
    for start in range(0, ROWS, 1000):
        values = ", ".join(
            f"({k}, {k * 0.25})" for k in range(start + 1, min(start + 1001, ROWS + 1))
        )
        system.server.execute(loader, f"INSERT INTO rep_rows VALUES {values}")
    system.server.checkpoint()
    system.server.disconnect(loader)

    connection = system.phoenix.connect(system.DSN)
    connection.config.sleep = lambda _s: None
    cursor = connection.cursor()
    cursor.execute("SELECT k, v FROM rep_rows ORDER BY k")
    cursor.fetchmany(DELIVERED)
    return system, connection, cursor


def test_reposition_wire_traffic():
    """Server-side repositioning ships (almost) no rows; client-side
    re-ships the whole result."""
    system, connection, cursor = _prepared_connection()
    system.server.crash()
    system.endpoint.restart_server()
    before = system.metrics.bytes_received
    connection.recovery.recover(CommunicationError("bench crash"))
    server_side = system.metrics.bytes_received - before
    (state,) = connection.results.values()
    plain = system.plain.connect(system.DSN)
    before = system.metrics.bytes_received
    rows = plain.cursor().execute(f"SELECT * FROM {state.table}").fetchall()
    client_side = system.metrics.bytes_received - before
    assert len(rows) == ROWS and rows[DELIVERED:] == cursor.fetchall()
    plain.close()
    connection.close()
    assert server_side < client_side / 5, (server_side, client_side)
