"""Tests for secondary indexes: DDL, maintenance, planner use, recovery."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, DataError, NotSupportedError
from tests.conftest import execute


@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10), g INT)")
    execute(
        server, sid,
        "INSERT INTO t VALUES " + ", ".join(f"({i}, 'v{i % 5}', {i % 3})" for i in range(1, 61)),
    )
    execute(server, sid, "CREATE INDEX iv ON t (v)")
    return server, sid


def explain(db, sql):
    server, sid = db
    return "\n".join(r[0] for r in execute(server, sid, f"EXPLAIN {sql}"))


# ---------------------------------------------------------------- DDL

def test_create_and_drop_index(db):
    server, sid = db
    assert server.database.indexes == {"iv": ("t", "v")}
    execute(server, sid, "DROP INDEX iv")
    assert server.database.indexes == {}


def test_duplicate_index_name_rejected(db):
    server, sid = db
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE INDEX iv ON t (g)")


def test_index_on_missing_table_or_column_rejected(session):
    server, sid = session
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE INDEX i ON nope (x)")
    execute(server, sid, "CREATE TABLE t (k INT)")
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE INDEX i ON t (missing)")


def test_drop_missing_index(db):
    server, sid = db
    with pytest.raises(CatalogError):
        execute(server, sid, "DROP INDEX nope")
    execute(server, sid, "DROP INDEX IF EXISTS nope")  # tolerated


def test_index_on_temp_table_rejected(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE #w (x INT)")
    with pytest.raises(NotSupportedError):
        execute(server, sid, "CREATE INDEX i ON #w (x)")


def test_drop_table_drops_its_indexes(db):
    server, sid = db
    execute(server, sid, "DROP TABLE t")
    assert server.database.indexes == {}


# ---------------------------------------------------------------- planner

def test_equality_selection_uses_index(db):
    assert "IndexScan t (v = const)" in explain(db, "SELECT * FROM t WHERE v = 'v3'")


def test_pk_equality_uses_pk_lookup(db):
    assert "PkLookup t (k = const)" in explain(db, "SELECT * FROM t WHERE k = 7")


def test_non_indexed_column_scans(db):
    assert "Scan t" in explain(db, "SELECT * FROM t WHERE g = 1")


def test_index_results_match_scan(db):
    server, sid = db
    indexed = execute(server, sid, "SELECT k FROM t WHERE v = 'v2' ORDER BY k")
    execute(server, sid, "DROP INDEX iv")
    scanned = execute(server, sid, "SELECT k FROM t WHERE v = 'v2' ORDER BY k")
    assert indexed == scanned and indexed


def test_probe_combined_with_other_predicates(db):
    server, sid = db
    rows = execute(server, sid, "SELECT k FROM t WHERE v = 'v1' AND g = 0 ORDER BY k")
    expected = [(i,) for i in range(1, 61) if i % 5 == 1 and i % 3 == 0]
    assert rows == expected


def test_probe_with_incomparable_constant_raises_as_the_scan_does(db):
    """An index never changes whether a statement errors: an equality or
    list value the column's type cannot hold sends the probe back to the
    scan, whose per-row comparison raises (it answered ``[]`` once)."""
    server, sid = db

    def error(where):
        with pytest.raises(DataError) as raised:
            execute(server, sid, f"SELECT k FROM t WHERE {where}")
        return str(raised.value)

    unindexed = error("k + 0 = 'abc'")
    assert error("g = 'abc'") == unindexed  # no index on g
    assert error("k = 'abc'") == unindexed  # the primary key
    assert error("k IN (1, 'abc')") == error("k + 0 IN (1, 'abc')")


@pytest.mark.parametrize("where", ["s = 5", "s IN (5, 7)", "s >= 5 AND s <= 5"])
def test_a_number_finds_in_a_text_column_what_the_scan_finds(session, where):
    """``'05' = 5`` casts the text to a number: an index of the spellings
    cannot find every text equal to a number, so a number sends the probe
    back to the scan."""
    server, sid = session
    execute(server, sid, "CREATE TABLE n (k INT PRIMARY KEY, s VARCHAR(5))")
    execute(server, sid, "INSERT INTO n VALUES (1, '05'), (2, '5'), (3, '6')")
    scanned = execute(server, sid, f"SELECT k FROM n WHERE {where} ORDER BY k")
    execute(server, sid, "CREATE INDEX n_s ON n (s)")
    assert execute(server, sid, f"SELECT k FROM n WHERE {where} ORDER BY k") == scanned
    assert scanned == [(1,), (2,)]


def test_probe_value_can_be_expression(db):
    server, sid = db
    rows = execute(server, sid, "SELECT v FROM t WHERE k = 3 + 4")
    assert rows == [("v2",)]


def test_correlated_probe_in_subquery(db):
    """The probe value may reference the outer row (evaluated per call)."""
    server, sid = db
    rows = execute(
        server, sid,
        "SELECT a.k FROM t a WHERE a.g = (SELECT g FROM t WHERE k = a.k) AND a.k <= 3 ORDER BY a.k",
    )
    assert rows == [(1,), (2,), (3,)]


# ---------------------------------------------------------------- maintenance

def test_index_maintained_by_dml(db):
    server, sid = db
    execute(server, sid, "INSERT INTO t VALUES (100, 'v1', 0)")
    execute(server, sid, "UPDATE t SET v = 'v1' WHERE k = 5")
    execute(server, sid, "DELETE FROM t WHERE k = 1")
    rows = execute(server, sid, "SELECT count(*) FROM t WHERE v = 'v1'")
    execute(server, sid, "DROP INDEX iv")
    assert execute(server, sid, "SELECT count(*) FROM t WHERE v = 'v1'") == rows


def test_index_respects_rollback(db):
    server, sid = db
    before = execute(server, sid, "SELECT count(*) FROM t WHERE v = 'v1'")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (200, 'v1', 0)")
    execute(server, sid, "ROLLBACK")
    assert execute(server, sid, "SELECT count(*) FROM t WHERE v = 'v1'") == before


# ---------------------------------------------------------------- recovery

def test_index_survives_crash(db):
    server, sid = db
    server.crash()
    server.restart()
    sid = server.connect()
    assert server.database.indexes == {"iv": ("t", "v")}
    assert server.database.tables["t"].has_secondary_index("v")
    rows = execute(server, sid, "SELECT count(*) FROM t WHERE v = 'v0'")
    assert rows == [(12,)]


def test_index_survives_checkpointed_crash(db):
    server, sid = db
    server.checkpoint()
    execute(server, sid, "CREATE INDEX ig ON t (g)")
    server.crash()
    server.restart()
    assert set(server.database.indexes) == {"iv", "ig"}


def test_uncommitted_index_ddl_rolled_back_by_crash(db):
    server, sid = db
    execute(server, sid, "BEGIN")
    execute(server, sid, "DROP INDEX iv")
    execute(server, sid, "CREATE INDEX ig ON t (g)")
    server.database.wal.force()
    server.crash()
    server.restart()
    assert server.database.indexes == {"iv": ("t", "v")}
    assert server.database.tables["t"].has_secondary_index("v")
    assert not server.database.tables["t"].has_secondary_index("g")


def test_index_through_phoenix_with_crash(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5))")
    cur.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'a')")
    cur.execute("CREATE INDEX iv ON t (v)")
    system.server.crash()
    system.endpoint.restart_server()
    cur.execute("SELECT count(*) FROM t WHERE v = 'a'")
    assert cur.fetchone() == (2,)
