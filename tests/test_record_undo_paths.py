"""Every data and DDL record kind undoes to one state on every path.

A record means one thing (``Database.apply``), and undoing it means
applying its ``inverse``.  Three paths rely on that: ROLLBACK applies the
inverses to the live database, a checkpoint taken while the transaction is
in flight applies them to the copies it writes, and a restart skips the
loser that a crash left behind.  For each of the eleven data and DDL kinds
an uncommitted transaction logs a record of that kind, and each path must
come back to the state before the transaction: rows, catalog, primary-key
and secondary-index structures — with ``next_rowid`` at the high-water
mark the transaction reached, since rowids are never reused.
"""

from __future__ import annotations

import pytest

from repro.engine import DatabaseServer
from repro.engine.wal import RecordType
from tests.conftest import execute

#: committed before the transaction: two tables with rows and an index
#: each, a view and a procedure.  ``u`` has a burned rowid, and is left
#: in the log, not in a table file: a restart replays it.
BASE = [
    "CREATE TABLE t (k INT PRIMARY KEY, v INT, s VARCHAR(10))",
    "INSERT INTO t VALUES (1, 10, 'a'), (2, 20, 'b'), (3, 30, NULL)",
    "CREATE INDEX t_v ON t (v)",
    "CREATE TABLE u (a INT, b VARCHAR(10))",
    "INSERT INTO u VALUES (1, 'x'), (2, 'y'), (3, 'y')",
    "DELETE FROM u WHERE a = 3",
    "CREATE INDEX u_b ON u (b)",
    "CREATE VIEW w AS SELECT k FROM t",
    "CREATE PROCEDURE p AS SELECT k FROM t",
]

#: one statement per kind, each logging a record of that kind
CASES = {
    RecordType.INSERT: "INSERT INTO t VALUES (4, 40, 'd')",
    RecordType.DELETE: "DELETE FROM t WHERE k = 2",
    RecordType.UPDATE: "UPDATE t SET k = 5, v = 21, s = 'c' WHERE k = 2",
    RecordType.CREATE_TABLE: "CREATE TABLE fresh (a INT PRIMARY KEY)",
    RecordType.DROP_TABLE: "DROP TABLE u",
    RecordType.CREATE_PROC: "CREATE PROCEDURE q AS SELECT v FROM t",
    RecordType.DROP_PROC: "DROP PROCEDURE p",
    RecordType.CREATE_VIEW: "CREATE VIEW w2 AS SELECT v FROM t",
    RecordType.DROP_VIEW: "DROP VIEW w",
    RecordType.CREATE_INDEX: "CREATE INDEX t_s ON t (s)",
    RecordType.DROP_INDEX: "DROP INDEX t_v",
}

MARKERS = {RecordType.BEGIN, RecordType.COMMIT, RecordType.ABORT, RecordType.CHECKPOINT}


def test_every_data_and_ddl_kind_has_a_case():
    assert set(CASES) == set(RecordType) - MARKERS


def state(server: DatabaseServer) -> dict:
    """What the database holds, derived structures included."""
    database = server.database
    return {
        "tables": {
            name: {
                "schema": table.schema,
                "rows": dict(table.data.rows),
                "next_rowid": table.data.next_rowid,
                "primary_key": dict(table._pk_index),
                "secondary": {
                    column: list(table.index_ordered(column))
                    for column in sorted(table._secondary)
                },
            }
            for name, table in database.tables.items()
        },
        "procedures": dict(database.procedures),
        "views": dict(database.views),
        "indexes": dict(database.indexes),
    }


def rollback(server: DatabaseServer, sid: int) -> None:
    execute(server, sid, "ROLLBACK")


def checkpoint_in_flight(server: DatabaseServer, _sid: int) -> None:
    server.checkpoint()
    server.crash()
    server.restart()


def restart_no_checkpoint(server: DatabaseServer, _sid: int) -> None:
    server.database.wal.force()  # the loser's records are in the log
    server.crash()
    server.restart()


PATHS = {path.__name__: path for path in (rollback, checkpoint_in_flight, restart_no_checkpoint)}


@pytest.mark.parametrize("path", sorted(PATHS))
@pytest.mark.parametrize("kind", list(CASES), ids=lambda kind: kind.name)
def test_an_uncommitted_record_leaves_the_state_before_it(kind, path):
    server = DatabaseServer()
    sid = server.connect()
    for sql in BASE:
        execute(server, sid, sql)
    before = state(server)

    execute(server, sid, "BEGIN")
    execute(server, sid, CASES[kind])
    txn = server.sessions[sid].current_txn
    assert kind in {record.type for record in txn.records}
    reached = {
        name: table.data.next_rowid for name, table in server.database.tables.items()
    }
    for name, table in before["tables"].items():
        table["next_rowid"] = max(table["next_rowid"], reached.get(name, 0))

    PATHS[path](server, sid)
    assert state(server) == before

    # and the database goes on from there: the rowids stay burned
    sid = server.connect()
    execute(server, sid, "INSERT INTO t VALUES (9, 90, 'z')")
    assert server.database.tables["t"].lookup_key((9,)) == before["tables"]["t"]["next_rowid"]
