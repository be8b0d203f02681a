"""Executor tests: DML, DDL, procedures, SET, and temp-object semantics."""

from __future__ import annotations

import pytest

from repro.engine import DatabaseServer
from repro.engine.wal import RecordType
from repro.errors import (
    CatalogError,
    DataError,
    IntegrityError,
    ProgrammingError,
    TransactionError,
)
from tests.conftest import execute


# ---------------------------------------------------------------- INSERT

def test_insert_rowcount(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    assert execute(server, sid, "INSERT INTO t VALUES (1), (2), (3)") == 3


def test_insert_with_column_subset_fills_nulls(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5), n INT)")
    execute(server, sid, "INSERT INTO t (k) VALUES (1)")
    assert execute(server, sid, "SELECT * FROM t") == [(1, None, None)]


def test_insert_column_subset_missing_not_null_rejected(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5) NOT NULL)")
    with pytest.raises(IntegrityError):
        execute(server, sid, "INSERT INTO t (k) VALUES (1)")


def test_insert_wrong_arity_rejected(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT, v INT)")
    with pytest.raises(ProgrammingError):
        execute(server, sid, "INSERT INTO t VALUES (1)")


def test_insert_select(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE src (k INT)")
    execute(server, sid, "CREATE TABLE dst (k INT)")
    execute(server, sid, "INSERT INTO src VALUES (1), (2)")
    assert execute(server, sid, "INSERT INTO dst SELECT k * 10 FROM src") == 2
    assert execute(server, sid, "SELECT k FROM dst ORDER BY k") == [(10,), (20,)]


def test_insert_duplicate_pk_aborts_whole_statement(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    with pytest.raises(IntegrityError):
        execute(server, sid, "INSERT INTO t VALUES (1), (1)")
    # autocommit: the statement's own transaction aborted, nothing applied
    assert execute(server, sid, "SELECT count(*) FROM t") == [(0,)]


# ---------------------------------------------------------------- UPDATE / DELETE

def test_update_sees_pre_statement_values(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "INSERT INTO t VALUES (1, 1), (2, 2)")
    # swap-style update must not chase its own writes
    execute(server, sid, "UPDATE t SET v = v + 10 WHERE v < 10")
    assert execute(server, sid, "SELECT v FROM t ORDER BY k") == [(11,), (12,)]


def test_update_rowcount(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "INSERT INTO t VALUES (1, 0), (2, 0), (3, 1)")
    assert execute(server, sid, "UPDATE t SET v = 9 WHERE v = 0") == 2


def test_update_pk_change(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "UPDATE t SET k = 2")
    assert execute(server, sid, "SELECT k FROM t") == [(2,)]


def test_delete_rowcount_and_where(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1), (2), (3)")
    assert execute(server, sid, "DELETE FROM t WHERE k >= 2") == 2
    assert execute(server, sid, "SELECT k FROM t") == [(1,)]


def test_delete_all(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "INSERT INTO t VALUES (1), (2)")
    assert execute(server, sid, "DELETE FROM t") == 2


# ------------------------------------- UPDATE / DELETE find rows as SELECT does

#: WHEREs over ``p`` (PK ``k``, ordered index on ``w``, rowid order is not
#: ``w`` order): every access path the one chooser can pick, and the shapes
#: it must refuse
DML_WHERES = [
    "k = 4 AND w = 5 AND v = 0",  # PK equality first ...
    "w = 5 AND k = 4 AND v = 0",  # ... in the middle ...
    "v = 0 AND w = 5 AND k = 4",  # ... and last: a PK probe every time
    "4 = k",
    "k = 99",
    "w = 3",
    "w = 3 AND v = 0",
    "w < 5",
    "w >= 5",
    "5 >= w",
    "w > 3 AND w <= 9",
    "w BETWEEN 3 AND 5",
    "w BETWEEN 9 AND 3",
    "w BETWEEN v AND 5",  # one bound depends on the row: the other still narrows
    "w NOT BETWEEN 3 AND 5",
    "w > NULL",
    "w = NULL",
    "w = 'abc'",
    "k = 'abc'",
    "w > 'abc'",  # uncoercible bound: the scan's per-row error
    "w BETWEEN 'x' AND 5",
    "k = (SELECT min(k) FROM p)",  # subquery value: no probe
    "w = (SELECT max(w) FROM p)",
    "k = k",  # the value depends on the row itself: no probe
    "w >= w",
    "k = 4 OR w = 3",
]


def _probe_table():
    server = DatabaseServer()
    sid = server.connect()
    execute(server, sid, "CREATE TABLE p (k INT PRIMARY KEY, w INT, v INT)")
    execute(server, sid, "CREATE INDEX p_w ON p (w)")
    execute(
        server, sid,
        "INSERT INTO p VALUES (1, 9, 0), (2, 3, 0), (3, NULL, 0), (4, 5, 0), (5, 3, 0), (6, 7, 0)",
    )
    return server, sid


def _outcome(sql):
    """What ``sql`` answers on a fresh copy of ``p``, which index paths it
    took, and the rows left behind."""
    server, sid = _probe_table()
    stats = server._executors[sid].stats
    try:
        answer = execute(server, sid, sql)
    except DataError as exc:
        answer = str(exc)
    paths = (stats.index_eq_probes > 0, stats.index_range_scans > 0)
    return answer, paths, execute(server, sid, "SELECT k, v FROM p ORDER BY k")


@pytest.mark.parametrize("where", DML_WHERES)
def test_update_and_delete_touch_the_rows_select_returns(where):
    selected, select_paths, untouched = _outcome(f"SELECT k FROM p WHERE {where} ORDER BY k")
    updated, update_paths, after_update = _outcome(f"UPDATE p SET v = v + 1 WHERE {where}")
    deleted, delete_paths, after_delete = _outcome(f"DELETE FROM p WHERE {where}")
    # a counter moves for the DML exactly when it moves for the SELECT (a
    # PK probe counts once per pass of the lock -> re-probe loop, so only
    # the direction is comparable)
    assert update_paths == delete_paths == select_paths
    if isinstance(selected, str):  # the per-row error, whatever the path
        assert updated == deleted == selected
        assert after_update == after_delete == untouched
        return
    keys = [k for (k,) in selected]
    assert updated == deleted == len(keys)
    assert [k for k, v in after_update if v == 1] == keys
    assert [k for k, _ in after_delete] == [k for k, _ in untouched if k not in keys]


def test_dml_chooses_its_access_path_once(session, monkeypatch):
    # was three times for a PK point UPDATE: once for the lock mode, once
    # per pass of the lock -> re-probe loop
    from repro.engine import executor

    calls = []
    chooser = executor._index_probe
    monkeypatch.setattr(
        executor, "_index_probe", lambda *args: calls.append(args) or chooser(*args)
    )
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "INSERT INTO t VALUES (1, 0), (2, 0)")
    assert execute(server, sid, "UPDATE t SET v = 1 WHERE k = 2") == 1
    assert execute(server, sid, "DELETE FROM t WHERE k = 1") == 1
    assert len(calls) == 2


def test_range_delete_logs_its_records_in_rowid_order(session):
    # the index hands rowids over in key order; the scan this probe
    # replaces logged them in rowid order, and so must the probe
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, w INT)")
    execute(server, sid, "CREATE INDEX t_w ON t (w)")
    execute(server, sid, "INSERT INTO t VALUES (1, 9), (2, 3), (3, 7), (4, 5), (5, 8)")
    stats = server._executors[sid].stats
    assert execute(server, sid, "DELETE FROM t WHERE w > 4") == 4
    assert stats.index_range_scans == 1
    deletes = [r for r in server.database.wal.read_all() if r.type is RecordType.DELETE]
    assert [r.before for r in deletes] == [(1, 9), (3, 7), (4, 5), (5, 8)]
    assert [r.rowid for r in deletes] == sorted(r.rowid for r in deletes)


def test_select_into_creates_table(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE src (k INT PRIMARY KEY, v VARCHAR(5))")
    execute(server, sid, "INSERT INTO src VALUES (1, 'a'), (2, 'b')")
    execute(server, sid, "SELECT k, upper(v) AS vv INTO copy FROM src")
    assert execute(server, sid, "SELECT * FROM copy ORDER BY k") == [(1, "A"), (2, "B")]


def test_select_into_stores_duplicate_output_names_uniquely(session):
    """A result may repeat a name, a table may not: repeats are stored as
    ``name_N``, never under a name the query itself uses; the reply still
    describes the query's own columns."""
    server, sid = session
    execute(server, sid, "CREATE TABLE src (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "INSERT INTO src VALUES (1, 10)")
    result = server.execute(sid, "SELECT k, k AS k_2, k, v + 1, v + 1 INTO copy FROM src")
    assert result.rowcount == 1
    described = [c.name for c in result.extra["into_columns"]]
    assert described[:3] == ["k", "k_2", "k"] and described[3] == described[4]
    stored = server.table_schema(sid, "copy").column_names
    assert stored[:3] == ["k", "k_2", "k_3"] and len(set(stored)) == 5
    assert execute(server, sid, "SELECT * FROM copy") == [(1, 1, 1, 11, 11)]


def test_select_into_existing_table_rejected(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE src (k INT)")
    with pytest.raises(CatalogError):
        execute(server, sid, "SELECT k INTO src FROM src")


# ---------------------------------------------------------------- transactions

def test_begin_commit_visibility(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "COMMIT")
    assert execute(server, sid, "SELECT count(*) FROM t") == [(1,)]


def test_rollback_discards(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "ROLLBACK")
    assert execute(server, sid, "SELECT count(*) FROM t") == [(0,)]


def test_nested_begin_rejected(session):
    server, sid = session
    execute(server, sid, "BEGIN")
    with pytest.raises(TransactionError):
        execute(server, sid, "BEGIN")


def test_commit_without_begin_rejected(session):
    server, sid = session
    with pytest.raises(TransactionError):
        execute(server, sid, "COMMIT")


def test_disconnect_aborts_open_txn(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    server.disconnect(sid)
    sid2 = server.connect()
    assert execute(server, sid2, "SELECT count(*) FROM t") == [(0,)]


# ---------------------------------------------------------------- procedures

def test_procedure_roundtrip(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT, v VARCHAR(10))")
    execute(server, sid, "CREATE PROCEDURE add_row (@k INT, @v VARCHAR(10)) AS INSERT INTO t VALUES (@k, @v)")
    execute(server, sid, "EXEC add_row 1, 'x'")
    execute(server, sid, "EXEC add_row 2, 'y'")
    assert execute(server, sid, "SELECT * FROM t ORDER BY k") == [(1, "x"), (2, "y")]


def test_procedure_param_coercion(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "CREATE PROCEDURE p (@k INT) AS INSERT INTO t VALUES (@k)")
    execute(server, sid, "EXEC p '42'")
    assert execute(server, sid, "SELECT k FROM t") == [(42,)]


def test_procedure_wrong_arity_rejected(session):
    server, sid = session
    execute(server, sid, "CREATE PROCEDURE p (@a INT) AS SELECT 1")
    with pytest.raises(ProgrammingError):
        execute(server, sid, "EXEC p 1, 2")


def test_procedure_returning_rows(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "INSERT INTO t VALUES (5)")
    execute(server, sid, "CREATE PROCEDURE get_all AS SELECT k FROM t")
    assert execute(server, sid, "EXEC get_all") == [(5,)]


def test_procedure_is_atomic_in_autocommit(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    execute(
        server, sid,
        "CREATE PROCEDURE double_insert AS BEGIN "
        "INSERT INTO t VALUES (1); INSERT INTO t VALUES (2) END",
    )
    with pytest.raises(IntegrityError):
        execute(server, sid, "EXEC double_insert")
    # the first inner insert rolled back with the procedure's transaction
    assert execute(server, sid, "SELECT k FROM t") == [(2,)]


def test_unknown_procedure(session):
    server, sid = session
    with pytest.raises(CatalogError):
        execute(server, sid, "EXEC nope")


def test_duplicate_procedure_rejected(session):
    server, sid = session
    execute(server, sid, "CREATE PROCEDURE p AS SELECT 1")
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE PROCEDURE p AS SELECT 2")


# ---------------------------------------------------------------- temp objects

def test_temp_table_shadowing_and_session_scope(server):
    a = server.connect()
    b = server.connect()
    execute(server, a, "CREATE TABLE shared (k INT)")
    execute(server, a, "INSERT INTO shared VALUES (1)")
    execute(server, a, "CREATE TABLE #shared (k INT)")  # session-A shadow
    execute(server, a, "INSERT INTO #shared VALUES (99)")
    assert execute(server, a, "SELECT k FROM #shared") == [(99,)]
    with pytest.raises(CatalogError):
        execute(server, b, "SELECT k FROM #shared")  # invisible to B


def test_temp_table_dml_not_logged(server):
    sid = server.connect()
    records_before = server.database.wal.records_written
    execute(server, sid, "CREATE TABLE #w (k INT)")
    execute(server, sid, "INSERT INTO #w VALUES (1)")
    execute(server, sid, "UPDATE #w SET k = 2")
    execute(server, sid, "DELETE FROM #w")
    # only the implicit BEGIN/COMMIT frames hit the log, no data records
    data_records = [
        r for r in server.database.wal.read_all() if r.table == "#w"
    ]
    assert data_records == []


def test_temp_procedure_session_scope(server):
    a = server.connect()
    b = server.connect()
    execute(server, a, "CREATE TABLE t (k INT)")
    execute(server, a, "CREATE PROCEDURE #p AS INSERT INTO t VALUES (1)")
    execute(server, a, "EXEC #p")
    with pytest.raises(CatalogError):
        execute(server, b, "EXEC #p")


def test_drop_temp_table(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE #w (k INT)")
    execute(server, sid, "DROP TABLE #w")
    with pytest.raises(CatalogError):
        execute(server, sid, "SELECT * FROM #w")


# ---------------------------------------------------------------- SET / misc

def test_set_option_stored_in_session(server):
    sid = server.connect()
    execute(server, sid, "SET query_timeout 30")
    assert server.sessions[sid].options["query_timeout"] == 30


def test_rowcount_function_tracks_last_dml(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "INSERT INTO t VALUES (1), (2), (3)")
    assert execute(server, sid, "SELECT rowcount()") == [(3,)]


def test_batch_rowcounts_collected(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT)")
    result = server.execute(
        sid, "BEGIN; INSERT INTO t VALUES (1), (2); INSERT INTO t VALUES (3); COMMIT"
    )
    assert result.extra["batch_rowcounts"] == [2, 1]


def test_placeholders_bind_positionally(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT, v VARCHAR(5))")
    server.execute(sid, "INSERT INTO t VALUES (?, ?)", placeholders=[7, "x"])
    result = server.execute(sid, "SELECT v FROM t WHERE k = ?", placeholders=[7])
    assert result.result_set.rows == [("x",)]


def test_unbound_placeholder_rejected(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT)")
    with pytest.raises(ProgrammingError):
        server.execute(sid, "SELECT * FROM t WHERE k = ?", placeholders=[])
