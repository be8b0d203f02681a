"""Tests for views: DDL, expansion, recovery, and Q15 support."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError
from tests.conftest import execute


@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE sales (sk INT, amount FLOAT)")
    execute(
        server, sid,
        "INSERT INTO sales VALUES (1, 10.0), (1, 5.0), (2, 20.0), (3, 1.0)",
    )
    execute(
        server, sid,
        "CREATE VIEW totals (supplier, total) AS "
        "SELECT sk, sum(amount) FROM sales GROUP BY sk",
    )
    return server, sid


def test_view_query_with_declared_columns(db):
    server, sid = db
    rows = execute(server, sid, "SELECT supplier, total FROM totals ORDER BY supplier")
    assert rows == [(1, 15.0), (2, 20.0), (3, 1.0)]


def test_view_without_column_list(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT, v INT)")
    execute(server, sid, "INSERT INTO t VALUES (1, 2)")
    execute(server, sid, "CREATE VIEW doubled AS SELECT k, v * 2 AS v2 FROM t")
    assert execute(server, sid, "SELECT v2 FROM doubled") == [(4,)]


def test_view_with_alias_in_from(db):
    server, sid = db
    rows = execute(server, sid, "SELECT x.total FROM totals x WHERE x.supplier = 2")
    assert rows == [(20.0,)]


def test_view_joins_base_table(db):
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT count(*) FROM sales, totals WHERE sales.sk = totals.supplier",
    )
    assert rows == [(4,)]


def test_view_sees_current_data(db):
    server, sid = db
    execute(server, sid, "INSERT INTO sales VALUES (2, 100.0)")
    rows = execute(server, sid, "SELECT total FROM totals WHERE supplier = 2")
    assert rows == [(120.0,)]


def test_view_in_subquery(db):
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT supplier FROM totals WHERE total = (SELECT max(total) FROM totals)",
    )
    assert rows == [(2,)]


def test_nested_views(db):
    server, sid = db
    execute(server, sid, "CREATE VIEW big_totals AS SELECT * FROM totals WHERE total > 10")
    rows = execute(server, sid, "SELECT supplier FROM big_totals ORDER BY supplier")
    assert rows == [(1,), (2,)]


def test_view_column_count_mismatch_rejected(db):
    server, sid = db
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE VIEW bad (a, b, c) AS SELECT sk FROM sales")


def test_view_over_missing_table_rejected_at_create(session):
    server, sid = session
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE VIEW v AS SELECT * FROM nope")


def test_duplicate_view_name_rejected(db):
    server, sid = db
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE VIEW totals AS SELECT 1")
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE VIEW sales AS SELECT 1")  # clashes with table


def test_drop_view(db):
    server, sid = db
    execute(server, sid, "DROP VIEW totals")
    with pytest.raises(CatalogError):
        execute(server, sid, "SELECT * FROM totals")
    execute(server, sid, "DROP VIEW IF EXISTS totals")  # idempotent form
    with pytest.raises(CatalogError):
        execute(server, sid, "DROP VIEW totals")


def test_view_survives_crash(db):
    server, sid = db
    server.crash()
    server.restart()
    sid = server.connect()
    rows = execute(server, sid, "SELECT count(*) FROM totals")
    assert rows == [(3,)]


def test_view_survives_checkpointed_crash(db):
    server, sid = db
    server.checkpoint()
    execute(server, sid, "CREATE VIEW second AS SELECT sk FROM sales")
    server.crash()
    server.restart()
    sid = server.connect()
    assert execute(server, sid, "SELECT count(*) FROM second") == [(4,)]
    assert execute(server, sid, "SELECT count(*) FROM totals") == [(3,)]


def test_uncommitted_view_ddl_rolled_back(db):
    server, sid = db
    execute(server, sid, "BEGIN")
    execute(server, sid, "CREATE VIEW ghost AS SELECT 1")
    execute(server, sid, "DROP VIEW totals")
    execute(server, sid, "ROLLBACK")
    with pytest.raises(CatalogError):
        execute(server, sid, "SELECT * FROM ghost")
    assert execute(server, sid, "SELECT count(*) FROM totals") == [(3,)]


def test_batch_result_set_survives_trailing_statements(db):
    """The Q15 shape: CREATE VIEW; SELECT; DROP VIEW in one batch."""
    server, sid = db
    result = server.execute(
        sid,
        "CREATE VIEW q15v AS SELECT sk FROM sales; "
        "SELECT count(*) FROM q15v; "
        "DROP VIEW q15v",
    )
    assert result.rows == [(4,)]


def test_q15_through_both_managers(system):
    from repro.workloads.tpch import populate, query_sql

    data = populate(system, sf=0.0005, seed=5)
    results = []
    for manager in (system.plain, system.phoenix):
        conn = manager.connect(system.DSN)
        cur = conn.cursor()
        cur.execute(query_sql("Q15", data.sf))
        results.append(cur.fetchall())
        conn.close()
    assert results[0] == results[1]
    assert results[0], "Q15 should select the top-revenue supplier"


def test_view_through_phoenix_with_crash(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1), (2), (3)")
    cur.execute("CREATE VIEW odd AS SELECT k FROM t WHERE k % 2 = 1")
    system.server.crash()
    system.endpoint.restart_server()
    cur.execute("SELECT k FROM odd ORDER BY k")
    assert cur.fetchall() == [(1,), (3,)]


def test_explain_shows_view_as_source(db):
    server, sid = db
    lines = [r[0] for r in execute(server, sid, "EXPLAIN SELECT * FROM totals")]
    assert lines[0].startswith("Scan totals")
