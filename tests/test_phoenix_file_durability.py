"""End-to-end durability: Phoenix over file-backed stable storage, with the
server object literally rebuilt from disk — as close to a real process kill
as an in-process simulation gets."""

from __future__ import annotations

import pytest

import repro
from repro.engine import DatabaseServer
from repro.engine.storage import FileStableStorage
from repro.odbc.constants import StatementAttr


@pytest.fixture()
def file_system(tmp_path):
    return repro.make_system(FileStableStorage(str(tmp_path / "db")))


def hard_restart(system, tmp_path=None):
    """Crash, then rebuild the DatabaseServer object from its storage files
    (not just restart the old object)."""
    storage = system.server.storage
    system.server.crash()
    reborn = DatabaseServer(FileStableStorage(storage.root))
    # splice the new server into the endpoint (same address, new process)
    old = system.endpoint.server
    system.endpoint.server = reborn
    system.server = reborn
    system.endpoint.epoch += 1
    return reborn


def test_phoenix_session_survives_process_replacement(file_system):
    system = file_system
    conn = system.phoenix.connect(system.DSN)
    conn.config.sleep = lambda _s: None
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY, v VARCHAR(10))")
    cur.execute("INSERT INTO t VALUES " + ", ".join(f"({i}, 'v{i}')" for i in range(1, 21)))
    cur.execute("SELECT k FROM t ORDER BY k")
    first = cur.fetchmany(8)

    hard_restart(system)

    cur2 = conn.cursor()
    cur2.execute("SELECT count(*) FROM t")  # triggers recovery
    assert cur2.fetchone() == (20,)
    rest = cur.fetchall()
    assert [r[0] for r in first + rest] == list(range(1, 21))
    conn.close()


def test_dml_exactly_once_across_process_replacement(file_system):
    system = file_system
    conn = system.phoenix.connect(system.DSN)
    restarted = {"done": False}

    def sleep_and_replace(_s):
        if not system.server.up and not restarted["done"]:
            hard_restart(system)
            restarted["done"] = True

    conn.config.sleep = sleep_and_replace
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")

    from repro.net import FaultKind

    system.faults.schedule_on_sql(FaultKind.CRASH_AFTER_EXECUTE, "INSERT INTO t")
    cur.execute("INSERT INTO t VALUES (1)")
    assert cur.rowcount == 1
    cur.execute("SELECT count(*) FROM t")
    assert cur.fetchone() == (1,)
    assert conn.stats.probe_hits == 1
    conn.close()


def test_materialized_tables_persist_on_disk(file_system, tmp_path):
    system = file_system
    conn = system.phoenix.connect(system.DSN)
    cur = conn.cursor()
    cur.execute("CREATE TABLE t (k INT PRIMARY KEY)")
    cur.execute("INSERT INTO t VALUES (1), (2)")
    cur.set_attr(StatementAttr.FETCH_BLOCK_SIZE, 1)  # more than one block
    cur.execute("SELECT k FROM t")
    state = cur._state
    system.server.checkpoint()
    # the phx result table is a first-class table in stable storage
    assert state.table in system.server.storage.list_table_files()
    conn.close()
