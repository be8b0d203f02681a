"""Ablation A5 — wire round trips per query, native vs Phoenix.

Wall-clock on an in-process wire hides the network; round-trip counts do
not.  Phoenix persists only the rows the server does not ship: a default
result that fits one fetch block (100 rows — every TPC-H answer at
sf=0.001) is ONE request, the statement as the native stack sends it,
capped at one row past the block, and the reply is the whole result — no
result table, no transaction, no log force.  A larger result is filled into
a table by the template's fill procedure, which reads back the first block
(``tests/test_phoenix_atomic_materialize.py`` pins that path's requests,
A1 prices it).  What Phoenix adds to a query that fits one block is
therefore nothing on the wire and nothing in the log.  This bench pins the
counts — they are deterministic, so CI's ``bench-smoke`` job runs this
file — and projects the overhead at representative RTTs.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_round_trip_accounting

QUERIES = ["Q1", "Q6", "Q16"]


@pytest.fixture(scope="module")
def accounting():
    return {row.name: row for row in run_round_trip_accounting(queries=QUERIES)}


def test_native_query_is_one_round_trip(accounting):
    assert all(row.native_trips == 1 for row in accounting.values())


def test_phoenix_fixed_round_trip_overhead(accounting):
    """A result within one block is the native request: exactly 1 trip, for
    every query (Q16 among them: a multi-row result)."""
    assert all(row.phoenix_trips == 1 for row in accounting.values())


def test_a_result_within_one_block_costs_no_log_force(accounting):
    """The client holds the whole result: the server persists nothing."""
    assert all(row.phoenix_forces == 0 for row in accounting.values())


def test_session_open_is_one_trip_and_one_force(tpch_system):
    """The connect's recipe creates the proxy, a temp table, which costs
    the log nothing, and the session's status table: its one force."""
    system, _data = tpch_system
    trips = system.metrics.round_trips
    forces = system.server.database.wal.stats.forces
    connection = system.phoenix.connect(system.DSN)
    assert system.metrics.round_trips - trips == 1
    assert system.server.database.wal.stats.forces - forces == 1
    connection.close()


def test_session_cleanup_is_one_trip_and_one_force(tpch_system):
    """close() drops every object of the session in one transaction."""
    system, _data = tpch_system
    connection = system.phoenix.connect(system.DSN)
    cursor = connection.cursor()
    for _ in range(5):
        cursor.execute("SELECT r_name FROM region")
        cursor.fetchall()
    trips = system.metrics.round_trips
    forces = system.server.database.wal.stats.forces
    connection.close()
    assert system.metrics.round_trips - trips == 1 + 1  # the DROPs; the disconnect
    assert system.server.database.wal.stats.forces - forces == 1


def test_phoenix_bytes_scale_with_result_not_with_protocol(accounting):
    # Q1 returns 6 wide rows, Q16 ~30; phoenix bytes stay within a small
    # constant factor of native (the data dominates, not the mechanism)
    for row in accounting.values():
        assert row.phoenix_bytes < 6 * row.native_bytes + 5000, vars(row)


@pytest.mark.parametrize("rtt_ms", [1.0, 30.0])
def test_projected_overhead_is_fixed_per_query(accounting, rtt_ms):
    rtt = rtt_ms / 1000.0
    overheads = {
        name: row.projected_overhead_seconds(rtt) for name, row in accounting.items()
    }
    # same fixed overhead regardless of the query
    assert len(set(round(v, 9) for v in overheads.values())) == 1
