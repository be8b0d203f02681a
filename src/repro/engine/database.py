"""The database: catalog + logged mutation API + checkpoint.

This is the durable half of the engine.  All *persistent* tables and
procedures live here, mutated only through methods that write WAL records
first (write-ahead rule).  Volatile session state (temp tables, cursors)
lives in :mod:`repro.engine.session` and never touches the log — which is
precisely why it dies in a crash and why Phoenix has to re-materialize it.

Restart recovery (:mod:`repro.engine.recovery`) reconstructs a Database from
stable storage alone.
"""

from __future__ import annotations

from repro.errors import CatalogError, TransactionError
from repro.engine.locks import LockManager, LockMode, LockStats
from repro.engine.schema import TableSchema
from repro.engine.storage import StableStorage, TableData
from repro.engine.table import Table
from repro.engine.transactions import Transaction, TransactionManager, TxnState
from repro.engine.wal import LogRecord, RecordType, WalStats, WriteAheadLog

__all__ = ["Database"]

_META_CHECKPOINT = "checkpoint_lsn"
_META_PROCEDURES = "procedures"  # (dict name -> CREATE PROCEDURE sql, snapshot lsn)
_META_VIEWS = "views"  # (dict name -> CREATE VIEW sql, snapshot lsn)
_META_INDEXES = "indexes"  # (dict name -> (table, column), snapshot lsn)


class Database:
    """Persistent tables, procedures, WAL, transactions, and locks."""

    def __init__(
        self,
        storage: StableStorage,
        *,
        tables: dict[str, Table] | None = None,
        procedures: dict[str, str] | None = None,
        views: dict[str, str] | None = None,
        txn_seed: int = 0,
        wal_stats: WalStats | None = None,
        lock_stats: LockStats | None = None,
    ):
        self.storage = storage
        self.wal = WriteAheadLog(storage, stats=wal_stats)
        self.tables: dict[str, Table] = tables if tables is not None else {}
        #: persistent stored procedures: name -> CREATE PROCEDURE source text
        self.procedures: dict[str, str] = procedures if procedures is not None else {}
        #: persistent views: name -> CREATE VIEW source text
        self.views: dict[str, str] = views if views is not None else {}
        #: persistent secondary indexes: name -> (table, column)
        self.indexes: dict[str, tuple[str, str]] = {}
        self.locks = LockManager(stats=lock_stats)
        self.txns = TransactionManager(seed=txn_seed)
        #: the server's :class:`~repro.engine.timetravel.TimeTravelManager`,
        #: attached by ``DatabaseServer._boot`` (None on bare databases).
        #: ``Executor`` routes ``SELECT ... AS OF`` through it.
        self.time_travel = None
        #: set by the server's crash(): a worker thread may still be deep in
        #: a statement against this object when the crash hits (a lock wait
        #: wakes into a dead engine) — the flag tells its cleanup path that
        #: undo is meaningless and, critically, that nothing may be appended
        #: to the WAL after the crash point.
        self.dead = False

    def mark_dead(self) -> None:
        self.dead = True

    # ------------------------------------------------------------------ catalog

    def has_table(self, name: str) -> bool:
        return name in self.tables

    def get_table(self, name: str) -> Table:
        try:
            return self.tables[name]
        except KeyError:
            raise CatalogError(f"table {name} does not exist") from None

    def has_procedure(self, name: str) -> bool:
        return name in self.procedures

    def has_view(self, name: str) -> bool:
        return name in self.views

    def has_index(self, name: str) -> bool:
        return name in self.indexes

    def table_indexes(self, table: str) -> list[str]:
        """Names of indexes on ``table``."""
        return [n for n, (t, _c) in self.indexes.items() if t == table]

    def get_view(self, name: str) -> str:
        try:
            return self.views[name]
        except KeyError:
            raise CatalogError(f"view {name} does not exist") from None

    def get_procedure(self, name: str) -> str:
        try:
            return self.procedures[name]
        except KeyError:
            raise CatalogError(f"procedure {name} does not exist") from None

    # ------------------------------------------------------------- transactions

    def begin(self) -> Transaction:
        txn = self.txns.begin()
        self.wal.append(LogRecord(RecordType.BEGIN, txn_id=txn.txn_id))
        return txn

    def commit(self, txn: Transaction) -> None:
        """Write and force the commit record, then release locks."""
        txn.require_active()
        self.wal.append(LogRecord(RecordType.COMMIT, txn_id=txn.txn_id))
        self.wal.force()
        self.txns.finish(txn, TxnState.COMMITTED)
        self.locks.release_all(txn.txn_id)

    def abort(self, txn: Transaction) -> None:
        """Undo the transaction in memory, then append its CLR batch + ABORT
        record as one atomic forced write (see wal.py docstring)."""
        txn.require_active()
        clrs = [self._undo_record(record) for record in reversed(txn.records)]
        clrs.append(LogRecord(RecordType.ABORT, txn_id=txn.txn_id))
        self.wal.append_forced(clrs)
        self.txns.finish(txn, TxnState.ABORTED)
        self.locks.release_all(txn.txn_id)

    def _undo_record(self, record: LogRecord) -> LogRecord:
        """Apply the inverse of ``record`` in memory and return its CLR."""
        clr = self._undo_record_inner(record)
        clr.compensates = record.rec_id
        return clr

    def _undo_record_inner(self, record: LogRecord) -> LogRecord:
        kind = record.type
        txn_id = record.txn_id
        if kind is RecordType.INSERT:
            table = self.get_table(record.table)
            before = table.delete(record.rowid)
            return LogRecord(
                RecordType.DELETE, txn_id=txn_id, table=record.table,
                rowid=record.rowid, before=before, is_clr=True,
            )
        if kind is RecordType.DELETE:
            table = self.get_table(record.table)
            table.insert(record.before, rowid=record.rowid)
            return LogRecord(
                RecordType.INSERT, txn_id=txn_id, table=record.table,
                rowid=record.rowid, after=record.before, is_clr=True,
            )
        if kind is RecordType.UPDATE:
            table = self.get_table(record.table)
            table.update(record.rowid, record.before)
            return LogRecord(
                RecordType.UPDATE, txn_id=txn_id, table=record.table,
                rowid=record.rowid, before=record.after, after=record.before,
                is_clr=True,
            )
        if kind is RecordType.CREATE_TABLE:
            # Rows inserted by the same txn were undone already (reverse order),
            # so the table is empty by now.  The stable file (if any) is
            # reconciled away at the next checkpoint.
            self.tables.pop(record.schema.name, None)
            return LogRecord(
                RecordType.DROP_TABLE, txn_id=txn_id, schema=record.schema,
                dropped_rows={}, is_clr=True,
            )
        if kind is RecordType.DROP_TABLE:
            restored = Table(
                TableData(
                    schema=record.schema,
                    rows=dict(record.dropped_rows or {}),
                    next_rowid=record.next_rowid or 1,
                )
            )
            self.tables[record.schema.name] = restored
            return LogRecord(
                RecordType.CREATE_TABLE, txn_id=txn_id, schema=record.schema,
                dropped_rows=dict(record.dropped_rows or {}),
                next_rowid=record.next_rowid, is_clr=True,
            )
        if kind is RecordType.CREATE_VIEW:
            self.views.pop(record.proc_name, None)
            return LogRecord(
                RecordType.DROP_VIEW, txn_id=txn_id,
                proc_name=record.proc_name, proc_sql=record.proc_sql, is_clr=True,
            )
        if kind is RecordType.DROP_VIEW:
            self.views[record.proc_name] = record.proc_sql
            return LogRecord(
                RecordType.CREATE_VIEW, txn_id=txn_id,
                proc_name=record.proc_name, proc_sql=record.proc_sql, is_clr=True,
            )
        if kind is RecordType.CREATE_INDEX:
            self._detach_index(record.proc_name)
            return LogRecord(
                RecordType.DROP_INDEX, txn_id=txn_id,
                proc_name=record.proc_name, proc_sql=record.proc_sql, is_clr=True,
            )
        if kind is RecordType.DROP_INDEX:
            table, column = _parse_index_sql(record.proc_sql)
            self._attach_index(record.proc_name, table, column)
            return LogRecord(
                RecordType.CREATE_INDEX, txn_id=txn_id,
                proc_name=record.proc_name, proc_sql=record.proc_sql, is_clr=True,
            )
        if kind is RecordType.CREATE_PROC:
            self.procedures.pop(record.proc_name, None)
            return LogRecord(
                RecordType.DROP_PROC, txn_id=txn_id,
                proc_name=record.proc_name, proc_sql=record.proc_sql, is_clr=True,
            )
        if kind is RecordType.DROP_PROC:
            self.procedures[record.proc_name] = record.proc_sql
            return LogRecord(
                RecordType.CREATE_PROC, txn_id=txn_id,
                proc_name=record.proc_name, proc_sql=record.proc_sql, is_clr=True,
            )
        raise TransactionError(f"cannot undo record type {kind}")

    # ------------------------------------------------------- logged mutation API

    def _log(self, txn: Transaction, record: LogRecord) -> LogRecord:
        txn.require_active()
        if not record.is_clr:
            txn.next_rec_id += 1
            record.rec_id = txn.next_rec_id
        self.wal.append(record)
        if not record.is_clr:
            txn.records.append(record)
        return record

    def lock_write(self, txn: Transaction, table_name: str) -> None:
        """Whole-table exclusive lock (DDL, non-keyed DML scans)."""
        self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE)

    def lock_row_write(self, txn: Transaction, table_name: str, rowid: int) -> None:
        """IX on the table, then X on the row."""
        self.locks.acquire(txn.txn_id, table_name, LockMode.INTENT_EXCLUSIVE)
        self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE, row=rowid)

    def insert_row(self, txn: Transaction, table_name: str, values: list) -> int:
        """Coerce, lock, log, and insert one row; returns its rowid.

        Validation (PK uniqueness) happens *before* the record is encoded
        into the log buffer, so a failed insert never leaves a phantom
        record behind; the rowid is pre-assigned for the same reason.

        Lock order: table IX first (that acquire may wait), *then* read
        ``next_rowid`` and take X on it — a fresh rowid has no other
        holders, so the row acquire only ever waits when it trips
        escalation into a full table lock; the re-read afterwards picks up
        any rowids consumed during such a wait (the escalated table X
        covers whichever rowid we end up using).
        """
        table = self.get_table(table_name)
        row = table.schema.coerce_row(values)
        self.locks.acquire(txn.txn_id, table_name, LockMode.INTENT_EXCLUSIVE)
        rowid = table.data.next_rowid
        self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE, row=rowid)
        rowid = table.data.next_rowid
        table.check_insert(row)
        record = self._log(
            txn,
            LogRecord(
                RecordType.INSERT, txn_id=txn.txn_id, table=table_name,
                rowid=rowid, after=row,
            ),
        )
        table.insert(row, rowid=rowid)
        table.data.last_lsn = record.lsn
        return rowid

    def delete_row(self, txn: Transaction, table_name: str, rowid: int) -> tuple:
        table = self.get_table(table_name)
        self.lock_row_write(txn, table_name, rowid)
        before = table.get(rowid)
        if before is None:
            raise CatalogError(f"rowid {rowid} not found in {table_name}")
        record = self._log(
            txn,
            LogRecord(
                RecordType.DELETE, txn_id=txn.txn_id, table=table_name,
                rowid=rowid, before=before,
            ),
        )
        deleted = table.delete(rowid)
        table.data.last_lsn = record.lsn
        return deleted

    def update_row(self, txn: Transaction, table_name: str, rowid: int, new_values: list) -> None:
        table = self.get_table(table_name)
        new_row = table.schema.coerce_row(list(new_values))
        self.lock_row_write(txn, table_name, rowid)
        before = table.get(rowid)
        if before is None:
            raise CatalogError(f"rowid {rowid} not found in {table_name}")
        table.check_update(rowid, new_row)
        record = self._log(
            txn,
            LogRecord(
                RecordType.UPDATE, txn_id=txn.txn_id, table=table_name,
                rowid=rowid, before=before, after=new_row,
            ),
        )
        table.update(rowid, new_row)
        table.data.last_lsn = record.lsn

    def create_table(self, txn: Transaction, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise CatalogError(f"table {schema.name} already exists")
        record = self._log(
            txn, LogRecord(RecordType.CREATE_TABLE, txn_id=txn.txn_id, schema=schema)
        )
        table = Table.create(schema)
        table.data.last_lsn = record.lsn
        self.tables[schema.name] = table
        self.lock_write(txn, schema.name)
        return table

    def drop_table(self, txn: Transaction, name: str) -> None:
        table = self.get_table(name)
        self.lock_write(txn, name)
        for index_name in self.table_indexes(name):
            self.drop_index(txn, index_name)
        self._log(
            txn,
            LogRecord(
                RecordType.DROP_TABLE, txn_id=txn.txn_id, schema=table.schema,
                dropped_rows=dict(table.data.rows), next_rowid=table.data.next_rowid,
            ),
        )
        # NOTE: the stable table file is *not* deleted here — the DROP is not
        # durable until commit.  Checkpoint reconciles stale files away.
        del self.tables[name]

    def create_procedure(self, txn: Transaction, name: str, sql_text: str) -> None:
        if name in self.procedures:
            raise CatalogError(f"procedure {name} already exists")
        self._log(
            txn,
            LogRecord(RecordType.CREATE_PROC, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        )
        self.procedures[name] = sql_text

    def drop_procedure(self, txn: Transaction, name: str) -> None:
        sql_text = self.get_procedure(name)
        self._log(
            txn,
            LogRecord(RecordType.DROP_PROC, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        )
        del self.procedures[name]

    def create_view(self, txn: Transaction, name: str, sql_text: str) -> None:
        if name in self.views:
            raise CatalogError(f"view {name} already exists")
        self._log(
            txn,
            LogRecord(RecordType.CREATE_VIEW, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        )
        self.views[name] = sql_text

    def drop_view(self, txn: Transaction, name: str) -> None:
        sql_text = self.get_view(name)
        self._log(
            txn,
            LogRecord(RecordType.DROP_VIEW, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        )
        del self.views[name]

    def _attach_index(self, name: str, table: str, column: str) -> None:
        """Register the index and build its ordered structure.

        The :class:`~repro.engine.table.OrderedIndex` built here is derived
        state — never logged or snapshotted; every load path (recovery
        redo, checkpoint load, time-travel reconstruction) re-enters
        through this method.  Adding (or dropping) the structure moves the
        table's ``version``, which invalidates the cached plans that bound
        the table: probes and top-k orderings can never reference an index
        that no longer matches the catalog.
        """
        self.indexes[name] = (table, column)
        if table in self.tables:
            self.tables[table].add_secondary_index(column)

    def _detach_index(self, name: str) -> None:
        entry = self.indexes.pop(name, None)
        if entry is None:
            return
        table, column = entry
        # only drop the structure if no other index covers the same column
        if table in self.tables and not any(
            t == table and c == column for t, c in self.indexes.values()
        ):
            self.tables[table].drop_secondary_index(column)

    def create_index(self, txn: Transaction, name: str, table: str, column: str) -> None:
        if name in self.indexes:
            raise CatalogError(f"index {name} already exists")
        table_obj = self.get_table(table)
        table_obj.schema.column_index(column)  # validate the column exists
        sql_text = f"CREATE INDEX {name} ON {table} ({column})"
        self._log(
            txn,
            LogRecord(RecordType.CREATE_INDEX, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        )
        self._attach_index(name, table, column)

    def drop_index(self, txn: Transaction, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"index {name} does not exist")
        table, column = self.indexes[name]
        sql_text = f"CREATE INDEX {name} ON {table} ({column})"
        self._log(
            txn,
            LogRecord(RecordType.DROP_INDEX, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        )
        self._detach_index(name)

    def rollback_statement(self, txn: Transaction, mark: int) -> None:
        """Partial rollback: undo the transaction's records past ``mark``
        (statement-level atomicity for a failed statement inside an explicit
        transaction).

        The CLRs go out as one atomic log append; each names the record it
        compensates, so restart undo — should the transaction later lose —
        skips the already-compensated records.
        """
        txn.require_active()
        to_undo = txn.records[mark:]
        if not to_undo:
            return
        clrs = [self._undo_record(record) for record in reversed(to_undo)]
        del txn.records[mark:]
        self.wal.append_forced(clrs)

    # --------------------------------------------------------------- checkpoint

    def _clean_images(
        self,
    ) -> tuple[dict[str, TableData], dict[str, str], dict[str, str], dict[str, tuple[str, str]]]:
        """Copy the tables and catalog with every active transaction's
        uncommitted effects undone — **clean (no-steal) images**.

        A file written from a clean image contains exactly the effects of
        transactions that committed before the covering CHECKPOINT record,
        and nothing else.  That is the invariant REDO-only restart builds
        on: per table, a winner needs replaying iff its commit LSN is past
        the image's snapshot LSN — whole transactions are replayed or
        skipped, never individual records.

        Undo is applied to copies in reverse global LSN order across all
        active transactions (their in-memory undo trails), leaving the live
        tables untouched.  ``next_rowid`` is *not* rolled back for undone
        inserts: rowids are never reused, and keeping the high-water mark in
        the image means a loser's rowids stay burned even though its rows
        never reach the file.
        """
        images = {
            name: TableData(
                schema=table.schema,
                rows=dict(table.data.rows),
                next_rowid=table.data.next_rowid,
            )
            for name, table in self.tables.items()
        }
        procedures = dict(self.procedures)
        views = dict(self.views)
        indexes = dict(self.indexes)
        pending = [
            record
            for txn_id in self.txns.active_ids()
            for record in self.txns.get(txn_id).records
        ]
        for record in sorted(pending, key=lambda r: r.lsn, reverse=True):
            kind = record.type
            if kind is RecordType.INSERT:
                images[record.table].rows.pop(record.rowid, None)
            elif kind is RecordType.DELETE:
                images[record.table].rows[record.rowid] = record.before
            elif kind is RecordType.UPDATE:
                images[record.table].rows[record.rowid] = record.before
            elif kind is RecordType.CREATE_TABLE:
                images.pop(record.schema.name, None)
            elif kind is RecordType.DROP_TABLE:
                images[record.schema.name] = TableData(
                    schema=record.schema,
                    rows=dict(record.dropped_rows or {}),
                    next_rowid=record.next_rowid or 1,
                )
            elif kind is RecordType.CREATE_VIEW:
                views.pop(record.proc_name, None)
            elif kind is RecordType.DROP_VIEW:
                views[record.proc_name] = record.proc_sql
            elif kind is RecordType.CREATE_PROC:
                procedures.pop(record.proc_name, None)
            elif kind is RecordType.DROP_PROC:
                procedures[record.proc_name] = record.proc_sql
            elif kind is RecordType.CREATE_INDEX:
                indexes.pop(record.proc_name, None)
            elif kind is RecordType.DROP_INDEX:
                indexes[record.proc_name] = _parse_index_sql(record.proc_sql)
        return images, procedures, views, indexes

    def checkpoint(self) -> int:
        """Write a clean checkpoint; returns the checkpoint record's LSN.

        Order (each step safe against a crash after it):

        1. force the WAL (write-ahead rule: every image effect is logged);
        2. build clean images — active transactions' effects undone in the
           copies (see :meth:`_clean_images`);
        3. append + force a CHECKPOINT record noting in-flight transactions;
        4. write every table file from its clean image, stamped with the
           checkpoint LSN (a transaction committed at or below that LSN is
           in the file; one committing past it is not — no in-between);
        5. point meta at the new checkpoint;
        6. if quiescent, archive the log prefix before the checkpoint for
           time travel, then drop it from the live log.

        A crash between 3 and 5 leaves meta pointing at the *old*
        checkpoint; files already rewritten in step 4 carry the new stamp
        and each is self-consistent, so the per-table commit-LSN guard in
        recovery stays exact even for a torn checkpoint.  A crash inside
        step 6 leaves the prefix in the archive *and* in the live log: the
        live log is authoritative (archive reads stop at the log base) and
        the next checkpoint's chunk replaces the stale one.
        """
        self.wal.force()
        images, procedures, views, indexes = self._clean_images()
        active = tuple(self.txns.active_ids())
        (lsn,) = self.wal.append_forced(
            [LogRecord(RecordType.CHECKPOINT, active_txns=active)]
        )
        for name, data in images.items():
            data.last_lsn = lsn
            self.storage.write_table_file(name, data)
        for stale in set(self.storage.list_table_files()) - set(images):
            self.storage.delete_table_file(stale)
        self.storage.write_meta(_META_PROCEDURES, (procedures, lsn))
        self.storage.write_meta(_META_VIEWS, (views, lsn))
        self.storage.write_meta(_META_INDEXES, (indexes, lsn))
        self.storage.write_meta(_META_CHECKPOINT, lsn)
        if not active:
            self._archive_log_prefix(lsn)
            self.storage.truncate_log_prefix(lsn)
        return lsn

    def _archive_log_prefix(self, lsn: int) -> None:
        """Append the log bytes below ``lsn``, and the commit rows the
        in-memory index holds for them, to the time-travel archive before
        :meth:`checkpoint` truncates them.  The chunk starts at the log
        base and replaces anything the archive already held from there on
        (:meth:`StableStorage.append_archive`), so the step can be repeated
        or die half-way without harm.  A database with no time-travel
        manager attached has no commit index: it archives the bytes alone."""
        base = self.storage.log_base
        if lsn <= base:
            return
        index = self.wal.log_index
        self.storage.append_archive(
            base,
            lsn,
            index.rows(base, lsn) if index is not None else [],
            self.storage.read_log()[: lsn - base],
        )


def _parse_index_sql(sql_text: str) -> tuple[str, str]:
    """Extract (table, column) from a generated CREATE INDEX statement."""
    from repro.sql import parse

    stmt = parse(sql_text)
    return stmt.table.lower(), stmt.column.lower()
