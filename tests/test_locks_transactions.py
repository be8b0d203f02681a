"""Unit tests for the lock manager and transaction machinery on Database."""

from __future__ import annotations

import pytest

from repro.errors import CatalogError, IntegrityError, LockError, TransactionError
from repro.engine.database import Database
from repro.engine.locks import LockManager, LockMode
from repro.engine.schema import Column, TableSchema
from repro.engine.storage import InMemoryStableStorage
from repro.engine.values import SqlType
from repro.engine.wal import RecordType


# ---------------------------------------------------------------- locks

def test_intent_locks_coexist():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    assert locks.held(1, "t") is LockMode.INTENT_EXCLUSIVE


def test_exclusive_conflicts_with_any_other_holder():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.EXCLUSIVE)


def test_intent_blocked_by_exclusive():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    with pytest.raises(LockError):
        locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)


def test_upgrade_when_sole_holder():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    assert locks.held(1, "t") is LockMode.EXCLUSIVE


def test_upgrade_blocked_by_other_intent():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)
    locks.acquire(2, "t", LockMode.INTENT_EXCLUSIVE)
    with pytest.raises(LockError):
        locks.acquire(1, "t", LockMode.EXCLUSIVE)


def test_exclusive_is_reentrant():
    locks = LockManager()
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    locks.acquire(1, "t", LockMode.EXCLUSIVE)
    locks.acquire(1, "t", LockMode.INTENT_EXCLUSIVE)  # already covered
    assert locks.held(1, "t") is LockMode.EXCLUSIVE


def test_release_all_frees_everything():
    locks = LockManager()
    locks.acquire(1, "a", LockMode.EXCLUSIVE)
    locks.acquire(1, "b", LockMode.INTENT_EXCLUSIVE)
    locks.release_all(1)
    locks.acquire(2, "a", LockMode.EXCLUSIVE)
    assert locks.holders("b") == {}


# ---------------------------------------------------------------- database txns

def make_db() -> Database:
    return Database(InMemoryStableStorage())


def schema(name: str = "t") -> TableSchema:
    return TableSchema(
        name, (Column("k", SqlType.INT, not_null=True), Column("v", SqlType.VARCHAR)),
        primary_key=("k",),
    )


def test_commit_forces_wal():
    db = make_db()
    txn = db.begin()
    db.create_table(txn, schema())
    db.insert_row(txn, "t", [1, "a"])
    db.commit(txn)
    types = [r.type for r in db.wal.read_all()]
    assert types == [
        RecordType.BEGIN, RecordType.CREATE_TABLE, RecordType.INSERT, RecordType.COMMIT,
    ]


def test_abort_undoes_insert():
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    db.commit(setup)
    txn = db.begin()
    db.insert_row(txn, "t", [1, "a"])
    db.abort(txn)
    assert db.get_table("t").row_count() == 0


def test_abort_undoes_delete_restoring_rowid():
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    rowid = db.insert_row(setup, "t", [1, "a"])
    db.commit(setup)
    txn = db.begin()
    db.delete_row(txn, "t", rowid)
    db.abort(txn)
    assert db.get_table("t").get(rowid) == (1, "a")


def test_abort_undoes_update():
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    rowid = db.insert_row(setup, "t", [1, "a"])
    db.commit(setup)
    txn = db.begin()
    db.update_row(txn, "t", rowid, [1, "changed"])
    db.abort(txn)
    assert db.get_table("t").get(rowid) == (1, "a")


def test_abort_undoes_create_table():
    db = make_db()
    txn = db.begin()
    db.create_table(txn, schema())
    db.insert_row(txn, "t", [1, "a"])
    db.abort(txn)
    assert not db.has_table("t")


def test_abort_undoes_drop_table_with_rows():
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    db.insert_row(setup, "t", [1, "a"])
    db.commit(setup)
    txn = db.begin()
    db.drop_table(txn, "t")
    db.abort(txn)
    assert db.get_table("t").row_count() == 1


def test_abort_undoes_procedures():
    db = make_db()
    setup = db.begin()
    db.create_procedure(setup, "p", "CREATE PROCEDURE p AS DELETE FROM t")
    db.commit(setup)
    txn = db.begin()
    db.drop_procedure(txn, "p")
    db.create_procedure(txn, "q", "CREATE PROCEDURE q AS DELETE FROM t")
    db.abort(txn)
    assert db.has_procedure("p") and not db.has_procedure("q")


def test_abort_writes_clr_batch_and_abort_record():
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    db.commit(setup)
    txn = db.begin()
    db.insert_row(txn, "t", [1, "a"])
    db.abort(txn)
    records = db.wal.read_all()
    clrs = [r for r in records if r.is_clr]
    assert len(clrs) == 1 and clrs[0].type is RecordType.DELETE
    assert records[-1].type is RecordType.ABORT


def test_double_commit_rejected():
    db = make_db()
    txn = db.begin()
    db.commit(txn)
    with pytest.raises(TransactionError):
        db.commit(txn)


def test_operations_on_finished_txn_rejected():
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    db.commit(setup)
    with pytest.raises(TransactionError):
        db.insert_row(setup, "t", [1, "a"])


def test_failed_insert_leaves_no_log_record():
    db = make_db()
    txn = db.begin()
    db.create_table(txn, schema())
    db.insert_row(txn, "t", [1, "a"])
    with pytest.raises(IntegrityError):
        db.insert_row(txn, "t", [1, "dup"])
    inserts = [r for r in txn.records if r.type is RecordType.INSERT]
    assert len(inserts) == 1  # the failed insert logged nothing


def test_delete_unknown_rowid_is_catalog_error():
    db = make_db()
    txn = db.begin()
    db.create_table(txn, schema())
    with pytest.raises(CatalogError):
        db.delete_row(txn, "t", 42)


def test_create_existing_table_rejected():
    db = make_db()
    txn = db.begin()
    db.create_table(txn, schema())
    with pytest.raises(CatalogError):
        db.create_table(txn, schema())


def test_cross_txn_inserts_no_longer_conflict():
    """Row-granularity locking: two transactions inserting different rows
    into the same table hold compatible IX table locks plus X locks on
    their own fresh rowids — neither blocks the other."""
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    db.commit(setup)
    t1 = db.begin()
    t2 = db.begin()
    db.insert_row(t1, "t", [1, "a"])
    db.insert_row(t2, "t", [2, "b"])  # concurrent insert: IX + IX coexist
    db.commit(t1)
    db.commit(t2)
    assert db.get_table("t").row_count() == 2


def test_cross_txn_same_row_write_conflict():
    """The write-write conflict the old table lock caught still exists at
    row granularity: two transactions locking the *same* row to update it
    collide (the writer locks the row, as the executor does, before
    ``update_row``)."""
    db = make_db()
    setup = db.begin()
    db.create_table(setup, schema())
    rowid = db.insert_row(setup, "t", [1, "a"])
    db.commit(setup)
    t1 = db.begin()
    t2 = db.begin()
    db.lock_row_write(t1, "t", rowid)
    db.update_row(t1, "t", rowid, [1, "t1"])
    with pytest.raises(LockError):
        db.lock_row_write(t2, "t", rowid)
    db.commit(t1)
    db.lock_row_write(t2, "t", rowid)  # row lock released by commit
    db.update_row(t2, "t", rowid, [1, "t2"])
    db.commit(t2)
    assert db.get_table("t").get(rowid) == (1, "t2")


def test_txn_ids_resume_after_recovery():
    from repro.engine.recovery import recover

    db = make_db()
    txn = db.begin()
    db.create_table(txn, schema())
    db.commit(txn)
    recovered, _report = recover(db.storage)
    fresh = recovered.begin()
    assert fresh.txn_id > txn.txn_id
