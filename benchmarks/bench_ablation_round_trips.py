"""Ablation A5 — wire round trips per query, native vs Phoenix.

Wall-clock on an in-process wire hides the network; round-trip counts do
not.  A default-result Phoenix query is ONE request, like a native one: the
script whose fill procedure creates the result table from the query it runs,
fills it and reads it back in one transaction — no metadata probe before it,
no delivery open after it — and one log force at its COMMIT.  What Phoenix
adds per query is therefore server work and one force, not network: zero
extra round trips at any data size.  This bench pins the counts — they are
deterministic, so CI's ``bench-smoke`` job runs this file — and projects the
overhead at representative RTTs.
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
    """Create-from-the-query, fill and read back are one script: exactly 1
    trip, for every query (Q16 among them: a multi-row result)."""
    assert all(row.phoenix_trips == 1 for row in accounting.values())


def test_materialised_select_costs_one_log_force(accounting):
    """The script is one transaction: its COMMIT is the only force."""
    assert all(row.phoenix_forces == 1 for row in accounting.values())


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
    assert system.metrics.round_trips - trips == 1 + 2  # the DROPs; two disconnects
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
