"""Restart recovery tests: every crash timing the engine must survive.

Pattern: drive a server, ``crash()``, ``restart()``, assert the database
equals exactly the committed state.  These are the substrate guarantees the
whole Phoenix layer leans on (DESIGN.md §2, substitution table).
"""

from __future__ import annotations

import pytest

from repro.errors import CatalogError
from repro.engine import DatabaseServer
from repro.engine.storage import FileStableStorage, InMemoryStableStorage

from tests.conftest import execute


def crashed_and_restarted(server: DatabaseServer) -> DatabaseServer:
    server.crash()
    server.restart()
    return server


def rows(server, sql):
    sid = server.connect()
    try:
        return execute(server, sid, sql)
    finally:
        server.disconnect(sid)


def test_committed_insert_survives(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1), (2)")
    crashed_and_restarted(server)
    assert rows(server, "SELECT count(*) FROM t") == [(2,)]


def test_uncommitted_txn_rolled_back_by_crash(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    execute(server, sid, "DELETE FROM t WHERE k = 1")
    crashed_and_restarted(server)
    assert rows(server, "SELECT k FROM t") == [(1,)]


def test_committed_update_and_delete_survive(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
    execute(server, sid, "INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, 'c')")
    execute(server, sid, "UPDATE t SET v = 'B' WHERE k = 2")
    execute(server, sid, "DELETE FROM t WHERE k = 3")
    crashed_and_restarted(server)
    assert rows(server, "SELECT v FROM t ORDER BY k") == [("a",), ("B",)]


def test_committed_ddl_survives(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE a (x INT)")
    execute(server, sid, "CREATE TABLE b (y INT)")
    execute(server, sid, "DROP TABLE a")
    crashed_and_restarted(server)
    assert server.table_names() == ["b"]


def test_procedures_survive(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "CREATE PROCEDURE add_one (@k INT) AS INSERT INTO t VALUES (@k)")
    crashed_and_restarted(server)
    sid = server.connect()
    execute(server, sid, "EXEC add_one 7")
    assert execute(server, sid, "SELECT k FROM t") == [(7,)]


def test_volatile_state_lost(server):
    """The other half of the contract: sessions, temp objects, cursors die."""
    sid = server.connect()
    execute(server, sid, "CREATE TABLE #tmp (x INT)")
    execute(server, sid, "CREATE PROCEDURE #tp AS DELETE FROM #tmp")
    result = server.execute(sid, "SELECT 1", cursor_type="keyset")
    crashed_and_restarted(server)
    assert not server.session_exists(sid)
    sid2 = server.connect()
    with pytest.raises(CatalogError):
        execute(server, sid2, "SELECT * FROM #tmp")
    with pytest.raises(CatalogError):
        execute(server, sid2, "EXEC #tp")


def test_checkpoint_then_more_work(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    server.checkpoint()
    execute(server, sid, "INSERT INTO t VALUES (2)")
    execute(server, sid, "DELETE FROM t WHERE k = 1")
    crashed_and_restarted(server)
    assert rows(server, "SELECT k FROM t") == [(2,)]


def test_quiescent_checkpoint_truncates_log(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    for i in range(20):
        execute(server, sid, f"INSERT INTO t VALUES ({i})")
    size_before = server.storage.log_size() - server.storage.log_base
    server.checkpoint()
    retained = server.storage.log_size() - server.storage.log_base
    assert retained < size_before
    crashed_and_restarted(server)
    assert rows(server, "SELECT count(*) FROM t") == [(20,)]


def test_checkpoint_with_active_txn_keeps_needed_log(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    server.checkpoint()  # fuzzy: txn still active, snapshot includes row 2
    crashed_and_restarted(server)  # loser: row 2 must be undone
    assert rows(server, "SELECT k FROM t") == [(1,)]


def test_loser_txn_spanning_checkpoint_committing_after(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    server.checkpoint()
    execute(server, sid, "INSERT INTO t VALUES (2)")
    execute(server, sid, "COMMIT")
    crashed_and_restarted(server)
    assert rows(server, "SELECT count(*) FROM t") == [(2,)]


def test_explicit_rollback_before_crash(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "ROLLBACK")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    crashed_and_restarted(server)
    assert rows(server, "SELECT k FROM t") == [(2,)]


def test_rollback_then_checkpoint_then_crash(server):
    """Aborted-before-checkpoint txns must not be re-undone at restart."""
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v INT)")
    execute(server, sid, "INSERT INTO t VALUES (1, 10)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "UPDATE t SET v = 99 WHERE k = 1")
    execute(server, sid, "ROLLBACK")
    server.checkpoint()
    crashed_and_restarted(server)
    assert rows(server, "SELECT v FROM t") == [(10,)]


def test_drop_and_recreate_same_name(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "DROP TABLE t")
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, extra INT)")
    execute(server, sid, "INSERT INTO t VALUES (5, 50)")
    crashed_and_restarted(server)
    assert rows(server, "SELECT * FROM t") == [(5, 50)]


def test_drop_recreate_around_checkpoint(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    server.checkpoint()
    execute(server, sid, "DROP TABLE t")
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    crashed_and_restarted(server)
    assert rows(server, "SELECT k FROM t") == [(2,)]


def test_uncommitted_drop_restored(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1), (2)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "DROP TABLE t")
    crashed_and_restarted(server)
    assert rows(server, "SELECT count(*) FROM t") == [(2,)]


def test_uncommitted_create_removed(server):
    sid = server.connect()
    execute(server, sid, "BEGIN")
    execute(server, sid, "CREATE TABLE ghost (k INT)")
    execute(server, sid, "INSERT INTO ghost VALUES (1)")
    crashed_and_restarted(server)
    assert server.table_names() == []


def test_double_crash_is_idempotent(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    server.crash()
    server.restart()  # undo of the loser runs here
    crashed_and_restarted(server)  # and recovery must be stable under repeat
    crashed_and_restarted(server)
    assert rows(server, "SELECT k FROM t") == [(1,)]


def test_many_crash_cycles_with_interleaved_commits(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    for i in range(5):
        sid = server.connect()
        execute(server, sid, f"INSERT INTO t VALUES ({i})")
        execute(server, sid, "BEGIN")
        execute(server, sid, f"INSERT INTO t VALUES ({100 + i})")  # always lost
        crashed_and_restarted(server)
    assert rows(server, "SELECT count(*) FROM t") == [(5,)]


def test_uncommitted_unforced_txn_simply_vanishes(server):
    """A loser whose records never reached the durable log (no force after
    them) leaves no trace — the WAL buffer died with the server."""
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    server.crash()
    report = server.restart()
    assert report.loser_txns == []
    assert rows(server, "SELECT count(*) FROM t") == [(0,)]


def test_recovery_report_contents(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (2)")
    # another session's commit forces the WAL, making the open transaction's
    # records durable — at restart it becomes a genuine loser to undo
    other = server.connect()
    execute(server, other, "CREATE TABLE other_t (x INT)")
    server.crash()
    report = server.restart()
    assert report.loser_txns  # the open txn
    assert report.records_redone >= 2
    assert report.records_scanned > 0
    assert rows(server, "SELECT count(*) FROM t") == [(1,)]


def test_restart_requires_down_server(server):
    from repro.errors import OperationalError

    with pytest.raises(OperationalError):
        server.restart()


def test_file_backed_recovery(tmp_path):
    path = str(tmp_path / "db")
    server = DatabaseServer(FileStableStorage(path))
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5))")
    execute(server, sid, "INSERT INTO t VALUES (1, 'a')")
    server.checkpoint()
    execute(server, sid, "INSERT INTO t VALUES (2, 'b')")
    server.crash()
    # a completely new process over the same files
    reborn = DatabaseServer(FileStableStorage(path))
    assert rows(reborn, "SELECT count(*) FROM t") == [(2,)]


def test_shutdown_is_clean(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    server.shutdown()
    server2 = DatabaseServer(server.storage)
    assert rows(server2, "SELECT count(*) FROM t") == [(1,)]


def test_stats_track_crashes_and_restarts(server):
    sid = server.connect()
    execute(server, sid, "SELECT 1")
    crashed_and_restarted(server)
    crashed_and_restarted(server)
    assert server.stats.crashes == 2
    assert server.stats.restarts == 2


# ------------------------------------------------------ REDO-only restart


def test_redo_only_skips_losers_without_undo(server):
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(5))")
    execute(server, sid, "INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    execute(server, sid, "BEGIN")
    execute(server, sid, "UPDATE t SET v = 'X' WHERE k = 1")
    execute(server, sid, "UPDATE t SET v = 'Y' WHERE k = 2")
    # force makes the loser's records durable without committing it
    other = server.connect()
    execute(server, other, "CREATE TABLE other_t (x INT)")
    server.crash()
    report = server.restart()
    # the loser's records were never inspected, let alone undone
    assert report.loser_txns
    assert report.records_skipped >= 2
    assert rows(server, "SELECT v FROM t ORDER BY k") == [("a",), ("b",)]


def test_losers_closed_with_abort_records(server):
    from repro.engine.wal import RecordType, scan_log

    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    other = server.connect()
    execute(server, other, "CREATE TABLE other_t (x INT)")
    server.crash()
    report = server.restart()
    (loser,) = report.loser_txns
    records, _ = scan_log(server.storage.read_log())
    closing = [
        r for r in records if r.type is RecordType.ABORT and r.txn_id == loser
    ]
    assert len(closing) == 1
    # a *bare* abort — no per-record compensation images were generated
    assert closing[0].table is None
    # and the next restart sees the transaction terminated, not a loser again
    server.crash()
    assert server.restart().loser_txns == []


def test_rowids_never_reused_after_loser_skipped(server):
    # the loser's insert consumed rowids; the REDO-only pass must still
    # burn them (next_rowid above every rowid seen in the log) so post-
    # restart inserts can't collide with anything
    sid = server.connect()
    execute(server, sid, "CREATE TABLE t (k INT PRIMARY KEY)")
    execute(server, sid, "INSERT INTO t VALUES (1)")
    execute(server, sid, "BEGIN")
    execute(server, sid, "INSERT INTO t VALUES (2), (3), (4)")
    other = server.connect()
    execute(server, other, "CREATE TABLE other_t (x INT)")
    server.crash()
    server.restart()
    assert server.database.get_table("t").data.next_rowid >= 5
    sid = server.connect()
    execute(server, sid, "INSERT INTO t VALUES (9)")
    assert rows(server, "SELECT k FROM t ORDER BY k") == [(1,), (9,)]
