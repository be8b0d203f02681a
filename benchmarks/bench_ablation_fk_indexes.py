"""Ablation A6 — foreign-key indexes under TPC-H's correlated subqueries.

Not a Phoenix design decision but an engine one the evaluation leans on:
Q4/Q17/Q20/Q21's correlated subqueries re-probe lineitem per outer row.
With the customary FK indexes those probes are hash lookups; without them
each probe is a full scan.  This bench pins the gap as a count of rows read
(and explains why the workload's DDL creates the indexes, like every real
TPC-H kit).
"""

from __future__ import annotations

import pytest

import repro
from repro.workloads.tpch.datagen import generate, load
from repro.workloads.tpch.queries import query_sql

SF = 0.0005
CORRELATED = ["Q4", "Q17", "Q20"]


def build(indexes: bool):
    system = repro.make_system()
    data = generate(sf=SF, seed=9)
    session = system.server.connect(user="loader")

    def execute(sql: str):
        system.server.execute(session, sql)

    from repro.workloads.tpch.schema import ddl_statements

    for ddl in ddl_statements(indexes=indexes):
        execute(ddl)
    # reuse load()'s row insertion only (schema already created)
    from repro.workloads.tpch.datagen import _render_value

    for table, rows in data.rows.items():
        for start in range(0, len(rows), 500):
            chunk = rows[start : start + 500]
            values = ", ".join(
                "(" + ", ".join(_render_value(v) for v in row) + ")" for row in chunk
            )
            execute(f"INSERT INTO {table} VALUES {values}")
    system.server.disconnect(session)
    return system, data


@pytest.fixture(scope="module")
def systems():
    return {True: build(True), False: build(False)}


def test_indexes_give_order_of_magnitude(systems):
    """Counted, not timed: the rows each correlated query's plans read
    (``ExecutorStats.rows_scanned``) fall by 10x or more with the FK
    indexes — at sf=0.0005 1,980 rows against 156,430 over the three."""
    scanned = {}
    for indexed in (True, False):
        system, data = systems[indexed]
        executor = system.registry.executor
        connection = system.plain.connect(system.DSN)
        cursor = connection.cursor()
        for query_id in CORRELATED:
            before = executor.rows_scanned
            cursor.execute(query_sql(query_id, data.sf))
            cursor.fetchall()
            scanned[indexed, query_id] = executor.rows_scanned - before
        connection.close()
    for query_id in CORRELATED:
        assert scanned[True, query_id] * 10 <= scanned[False, query_id], scanned
