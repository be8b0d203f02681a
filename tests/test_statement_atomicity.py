"""Statement-level atomicity inside explicit transactions (savepoint-like
partial rollback with compensation records)."""

from __future__ import annotations

import pytest

from repro.errors import IntegrityError
from tests.conftest import execute


@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    return server, sid


def test_failed_statement_in_txn_rolls_back_only_itself(db):
    server, sid = db
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1, 0)")
    with pytest.raises(IntegrityError):
        execute(server, sid, "INSERT INTO t VALUES (2, 0), (2, 0)")
    execute(server, sid, "INSERT INTO t VALUES (3, 0)")
    execute(server, sid, "COMMIT")
    assert execute(server, sid, "SELECT k FROM t ORDER BY k") == [(1,), (3,)]


def test_failed_update_in_txn(db):
    server, sid = db
    execute(server, sid, "INSERT INTO t VALUES (1, 0), (2, 0)")
    execute(server, sid, "BEGIN")
    with pytest.raises(IntegrityError):
        # PK collision happens on the second row touched
        execute(server, sid, "UPDATE t SET k = 9 WHERE k <= 2")
    execute(server, sid, "COMMIT")
    assert execute(server, sid, "SELECT k FROM t ORDER BY k") == [(1,), (2,)]


def test_rollback_after_failed_statement_still_works(db):
    server, sid = db
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1, 0)")
    with pytest.raises(IntegrityError):
        execute(server, sid, "INSERT INTO t VALUES (1, 0)")
    execute(server, sid, "ROLLBACK")
    assert execute(server, sid, "SELECT count(*) FROM t") == [(0,)]


def test_failed_ddl_in_txn(db):
    server, sid = db
    from repro.errors import CatalogError

    execute(server, sid, "BEGIN")
    execute(server, sid, "CREATE TABLE fresh (x INT)")
    with pytest.raises(CatalogError):
        execute(server, sid, "CREATE TABLE t (x INT)")  # exists
    execute(server, sid, "COMMIT")
    assert "fresh" in server.table_names()


def test_compensated_records_not_double_undone_after_crash(db):
    """The crash-safety core: statement CLRs are in the durable log; the
    restart must skip them with the rest of the loser's records."""
    server, sid = db
    execute(server, sid, "INSERT INTO t VALUES (1, 0)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (10, 0)")
    with pytest.raises(IntegrityError):
        execute(server, sid, "INSERT INTO t VALUES (11, 0), (11, 0)")
    server.database.wal.force()  # everything durable, txn still open
    server.crash()
    server.restart()
    sid = server.connect()
    assert execute(server, sid, "SELECT k FROM t ORDER BY k") == [(1,)]


def test_multiple_failed_statements_one_txn(db):
    server, sid = db
    execute(server, sid, "BEGIN")
    for i in range(3):
        execute(server, sid, f"INSERT INTO t VALUES ({i}, 0)")
        with pytest.raises(IntegrityError):
            execute(server, sid, f"INSERT INTO t VALUES ({i}, 1)")
    execute(server, sid, "COMMIT")
    assert execute(server, sid, "SELECT count(*) FROM t") == [(3,)]


def test_phoenix_sees_statement_atomicity_in_replayed_txn(system, phoenix_conn):
    cur = phoenix_conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    phoenix_conn.begin()
    cur.execute("INSERT INTO t VALUES (1)")
    with pytest.raises(IntegrityError):
        cur.execute("INSERT INTO t VALUES (1)")
    cur.execute("INSERT INTO t VALUES (2)")
    phoenix_conn.commit()
    cur.execute("SELECT k FROM t ORDER BY k")
    assert cur.fetchall() == [(1,), (2,)]
