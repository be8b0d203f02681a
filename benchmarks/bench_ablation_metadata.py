"""Ablation A2 — the ``WHERE 0=1`` metadata probe vs executing the query.

Paper §3, Result Sets step 1: the probe "guarantees that the query will not
be executed and that no result data will actually be returned, minimizing
both server load and message size.  Only query compilation is performed."
We compare the probe against the naive alternative — run the real query
once and discard the rows just to see the metadata.
"""

from __future__ import annotations

import pytest

import repro
from repro.sql import parse

ROWS = 5_000
SQL = "SELECT k, v, k % 7 AS bucket FROM meta_rows WHERE v > 0"


@pytest.fixture(scope="module")
def system():
    system = repro.make_system()
    loader = system.server.connect()
    system.server.execute(loader, "CREATE TABLE meta_rows (k INT PRIMARY KEY, v FLOAT)")
    for start in range(0, ROWS, 1000):
        values = ", ".join(
            f"({k}, {k * 1.0})" for k in range(start + 1, min(start + 1001, ROWS + 1))
        )
        system.server.execute(loader, f"INSERT INTO meta_rows VALUES {values}")
    system.server.disconnect(loader)
    return system


def test_metadata_probe_ships_no_data(system):
    """The probe's reply carries metadata only; the naive path hauls every
    row across the wire — for the same column description."""
    select = parse(SQL)
    connection = system.phoenix.connect(system.DSN)
    describe = {
        "false_where": lambda: connection.probe_metadata(select),
        "execute": lambda: connection.app.execute(select.sql()).columns,  # the native driver
    }
    received = {}
    for mode, columns_of in describe.items():
        before = system.metrics.bytes_received
        assert [c.name for c in columns_of()] == ["k", "v", "bucket"]
        received[mode] = system.metrics.bytes_received - before
    connection.close()
    assert received["false_where"] < received["execute"] / 50, received
