"""Ablation A1 — server-side stored-procedure materialization vs shipping
every row to the client and INSERTing it back.

Paper §3, Result Sets step 3: "The advantage of using a stored procedure is
that all data is moved locally at the server ... rather than having data
moving across the network."  The ablation makes that advantage measurable:
round trips and bytes on the wire for the same materialization.  The
alternative is built here from plain-driver calls; the driver has one path.
"""

from __future__ import annotations

import repro

ROWS = 2_000
SQL = "SELECT k, v, v * 2 AS v2 FROM abl_rows WHERE k <= 100000"


def _system():
    system = repro.make_system()
    loader = system.server.connect()
    system.server.execute(loader, "CREATE TABLE abl_rows (k INT PRIMARY KEY, v FLOAT)")
    for start in range(0, ROWS, 1000):
        values = ", ".join(
            f"({k}, {k * 0.5})" for k in range(start + 1, min(start + 1001, ROWS + 1))
        )
        system.server.execute(loader, f"INSERT INTO abl_rows VALUES {values}")
    system.server.disconnect(loader)
    return system


def _round_trip_rows(cursor) -> list[tuple]:
    """The alternative: fetch every row and INSERT it back, 50 per request."""
    cursor.execute("CREATE TABLE abl_copy (k INT, v FLOAT, v2 FLOAT)")
    rows = cursor.execute(SQL).fetchall()
    for start in range(0, len(rows), 50):
        values = ", ".join(str(row) for row in rows[start : start + 50])
        cursor.execute(f"INSERT INTO abl_copy VALUES {values}")
    return rows


def test_materialize_round_trips_and_bytes():
    """The design's point, asserted: the stored-procedure path costs far
    fewer round trips and orders of magnitude fewer bytes than round-
    tripping the rows.  The result is twenty fetch blocks, so Phoenix
    materializes it: the capped read that finds it larger than one block,
    then one fill request.  Delivery comes after, a block per request
    through a server cursor over the result table (one open that already
    stands past the first block, 19 fetches, close) — what a native server cursor pays
    too — and sends the server no rows."""
    costs = {}
    for mode in ("proc", "client"):
        system = _system()
        connection = (system.phoenix if mode == "proc" else system.plain).connect(system.DSN)
        before = (system.metrics.round_trips, system.metrics.bytes_sent)
        if mode == "proc":
            cursor = connection.cursor().execute(SQL)
            materialize_trips = system.metrics.round_trips - before[0]
            rows = cursor.fetchall()
        else:
            rows = _round_trip_rows(connection.cursor())
        assert len(rows) == ROWS  # both sides deliver the rows as well
        after = (system.metrics.round_trips, system.metrics.bytes_sent)
        costs[mode] = (after[0] - before[0], after[1] - before[1])
        connection.close()
    proc_trips, proc_bytes = costs["proc"]
    client_trips, client_bytes = costs["client"]
    assert materialize_trips == 2, (costs,)
    assert proc_trips == materialize_trips + 1 + (ROWS - 100) // 100 + 1, (costs,)
    assert materialize_trips < client_trips / 5, (costs,)
    assert proc_bytes < client_bytes / 10, (costs,)
