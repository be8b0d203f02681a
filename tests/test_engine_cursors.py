"""Server-side cursor tests: default, keyset, dynamic, downgrade, advance."""

from __future__ import annotations

import pytest

from repro.errors import ProgrammingError
from repro.engine.cursors import CursorType
from tests.conftest import execute


@pytest.fixture()
def db(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
    execute(server, sid, "INSERT INTO t VALUES " + ", ".join(f"({i}, 'v{i}')" for i in range(1, 21)))
    return server, sid


def open_cursor(db, sql, cursor_type):
    server, sid = db
    result = server.execute(sid, sql, cursor_type=cursor_type)
    return result.cursor_id, result.effective_cursor_type


def test_default_cursor_block_fetch(db):
    server, sid = db
    cid, effective = open_cursor(db, "SELECT k FROM t", CursorType.KEYSET)
    assert effective == CursorType.KEYSET
    rows, done = server.fetch(sid, cid, 5)
    assert [r[0] for r in rows] == [1, 2, 3, 4, 5] and not done


def test_keyset_sees_updates_not_membership_changes(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k, v FROM t WHERE k <= 10", CursorType.KEYSET)
    server.fetch(sid, cid, 2)
    execute(server, sid, "UPDATE t SET v = 'CHANGED' WHERE k = 4")
    execute(server, sid, "INSERT INTO t VALUES (100, 'new')")  # outside keyset
    rows, _ = server.fetch(sid, cid, 3)
    assert rows == [(3, "v3"), (4, "CHANGED"), (5, "v5")]
    # membership frozen: new row 100 never appears
    all_rows, done = server.fetch(sid, cid, 100)
    assert done and all(r[0] <= 10 for r in all_rows)


def test_keyset_deleted_rows_are_holes(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k FROM t WHERE k <= 5", CursorType.KEYSET)
    execute(server, sid, "DELETE FROM t WHERE k = 2")
    rows, done = server.fetch(sid, cid, 10)
    assert [r[0] for r in rows] == [1, 3, 4, 5]


def test_keyset_respects_order_by(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k FROM t WHERE k <= 5 ORDER BY k DESC", CursorType.KEYSET)
    server_rows, _ = (lambda s=db[0]: s.fetch(db[1], cid, 3))()
    assert [r[0] for r in server_rows] == [5, 4, 3]


def test_dynamic_cursor_sees_inserts_and_deletes(db):
    server, sid = db
    cid, effective = open_cursor(db, "SELECT k FROM t WHERE k >= 10", CursorType.DYNAMIC)
    assert effective == CursorType.DYNAMIC
    rows, _ = server.fetch(sid, cid, 3)
    assert [r[0] for r in rows] == [10, 11, 12]
    execute(server, sid, "INSERT INTO t VALUES (14, 'x')") if False else None
    execute(server, sid, "INSERT INTO t VALUES (150, 'tail')")
    execute(server, sid, "DELETE FROM t WHERE k = 15")
    rows, done = server.fetch(sid, cid, 100)
    keys = [r[0] for r in rows]
    assert 15 not in keys and 150 in keys


def test_dynamic_cursor_rejects_order_by(db):
    server, sid = db
    with pytest.raises(ProgrammingError):
        server.execute(sid, "SELECT k FROM t ORDER BY k DESC", cursor_type=CursorType.DYNAMIC)


def test_downgrade_on_join(db):
    server, sid = db
    _, effective = open_cursor(db, "SELECT a.k FROM t a JOIN t b ON a.k = b.k", CursorType.KEYSET)
    assert effective == CursorType.DEFAULT


def test_downgrade_on_aggregate(db):
    _, effective = open_cursor(db, "SELECT count(*) FROM t", CursorType.DYNAMIC)
    assert effective == CursorType.DEFAULT


def test_downgrade_on_composite_pk(session):
    server, sid = session
    execute(server, sid, "CREATE TABLE c (a INT, b INT, PRIMARY KEY (a, b))")
    execute(server, sid, "INSERT INTO c VALUES (1, 1)")
    result = server.execute(sid, "SELECT a FROM c", cursor_type=CursorType.KEYSET)
    assert result.effective_cursor_type == CursorType.DEFAULT


def test_advance_skips_server_side(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k FROM t", CursorType.KEYSET)
    server.advance(sid, cid, 15)
    rows, _ = server.fetch(sid, cid, 3)
    assert [r[0] for r in rows] == [16, 17, 18]


def test_advance_backward_rejected(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k FROM t", CursorType.KEYSET)
    server.fetch(sid, cid, 5)
    with pytest.raises(ProgrammingError):
        server.advance(sid, cid, 2)


def test_advance_past_end_clamps(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k FROM t", CursorType.KEYSET)
    server.advance(sid, cid, 10_000)
    rows, done = server.fetch(sid, cid, 5)
    assert rows == [] and done


def test_fetch_requires_positive_count(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k FROM t", CursorType.KEYSET)
    with pytest.raises(ProgrammingError):
        server.fetch(sid, cid, 0)


def test_close_cursor_frees_it(db):
    server, sid = db
    cid, _ = open_cursor(db, "SELECT k FROM t", CursorType.KEYSET)
    server.close_cursor(sid, cid)
    with pytest.raises(ProgrammingError):
        server.fetch(sid, cid, 1)


def test_unknown_cursor_type_rejected(db):
    server, sid = db
    with pytest.raises(ProgrammingError):
        server.execute(sid, "SELECT k FROM t", cursor_type="spiral")


def test_cursors_are_per_session(db):
    server, sid = db
    other = server.connect()
    cid, _ = open_cursor(db, "SELECT k FROM t", CursorType.KEYSET)
    with pytest.raises(ProgrammingError):
        server.fetch(other, cid, 1)


def test_default_cursor_type_returns_rows_inline(db):
    server, sid = db
    result = server.execute(sid, "SELECT k FROM t", cursor_type=CursorType.DEFAULT)
    assert result.cursor_id is None
    assert len(result.rows) == 20
