"""The database: catalog + logged mutation API + checkpoint.

This is the durable half of the engine.  All *persistent* tables and
procedures live here, mutated only through methods that write WAL records
first (write-ahead rule).  Volatile session state (temp tables, cursors)
lives in :mod:`repro.engine.session` and never touches the log — which is
precisely why it dies in a crash and why Phoenix has to re-materialize it.

A transaction's BEGIN record is written lazily, just before its first
durable record (:meth:`Database._log`), and one that wrote none commits or
aborts with no record and no force.  So temp-table work, reads and no-op
DDL (``CREATE TABLE IF NOT EXISTS`` on a table that exists) cost the log
nothing, like work in SQL Server's ``tempdb``.

Restart recovery (:mod:`repro.engine.recovery`) reconstructs a Database from
stable storage alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import CatalogError, TransactionError
from repro.engine.locks import LockManager, LockMode, LockStats
from repro.engine.plancache import PROC_CACHE_CAPACITY, LRUCache, PlanCache
from repro.engine.schema import TableSchema
from repro.engine.storage import StableStorage, TableData
from repro.engine.table import Table
from repro.engine.transactions import Transaction, TransactionManager, TxnState
from repro.engine.wal import LogRecord, RecordType, WalStats, WriteAheadLog, inverse

__all__ = ["Database"]

#: the one meta entry, a :class:`CheckpointMeta`
_META = "checkpoint"


@dataclass
class CheckpointMeta:
    """What a checkpoint notes beside the table files, in one meta write;
    the defaults are a device no checkpoint has touched."""

    #: the LSN restart starts reading the log at
    redo_start: int = 0
    #: no commit below the redo start is stamped later than this
    clock: float = 0.0
    #: the catalog as of ``catalog_lsn``: name -> CREATE PROCEDURE / CREATE
    #: VIEW source text, and index name -> (table, column)
    procedures: dict[str, str] = field(default_factory=dict)
    views: dict[str, str] = field(default_factory=dict)
    indexes: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: a catalog record committed at or below this LSN is in the catalog
    catalog_lsn: int = 0


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
        #: where restart starts reading the log: the last checkpoint taken
        #: with no logged transaction in flight (recovery sets it from meta)
        self.redo_start = 0
        #: compiled plans (SELECT and DML), shared by every session of this
        #: incarnation and volatile with it (:mod:`repro.engine.plancache`)
        self.plans = PlanCache()
        #: stored procedure text -> its parsed CREATE PROCEDURE, likewise
        self.procedure_parses = LRUCache(PROC_CACHE_CAPACITY)
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
        """Start a transaction; nothing is logged until :meth:`_log`."""
        return self.txns.begin()

    def commit(self, txn: Transaction) -> None:
        """Write and force the commit record, then release locks.  A
        transaction that never logged has nothing to make durable."""
        txn.require_active()
        if txn.logged:
            self.wal.append(LogRecord(RecordType.COMMIT, txn_id=txn.txn_id))
            self.wal.force()
        self.txns.finish(txn, TxnState.COMMITTED)
        self.locks.release_all(txn.txn_id)

    def abort(self, txn: Transaction) -> None:
        """Undo the transaction in memory, then append its CLR batch + ABORT
        record as one atomic forced write (see wal.py docstring).  A
        transaction that never logged has nothing to undo or to log."""
        txn.require_active()
        if txn.logged:
            clrs = self._undo(txn.records)
            clrs.append(LogRecord(RecordType.ABORT, txn_id=txn.txn_id))
            self.wal.append_forced(clrs)
        self.txns.finish(txn, TxnState.ABORTED)
        self.locks.release_all(txn.txn_id)

    def _undo(self, records: list[LogRecord]) -> list[LogRecord]:
        """Apply the inverse of each of ``records``, last first; returns
        the CLRs in the order they were applied."""
        clrs = [inverse(record) for record in reversed(records)]
        for clr in clrs:
            self.apply(clr)
        return clrs

    def apply(self, record: LogRecord) -> None:
        """Give one data or DDL record its effect on the tables, their
        rows and index structures, the procedures and the views.

        This is the only place a record changes the database: the logged
        mutation methods below apply the record they log, abort and
        statement rollback apply each record's :func:`inverse`, a
        checkpoint applies the inverses to a copy (:meth:`_clean_images`),
        and restart recovery and time travel apply the winners' records.
        The callers check and lock; this trusts the record.
        """
        kind = record.type
        if kind is RecordType.UPDATE:
            self.tables[record.table].update(record.rowid, record.after)
        elif kind is RecordType.INSERT:
            self.tables[record.table].insert(record.after, rowid=record.rowid)
        elif kind is RecordType.DELETE:
            self.tables[record.table].delete(record.rowid)
        elif kind is RecordType.CREATE_TABLE:
            # a CLR that undoes a DROP TABLE carries the rows back
            self.tables[record.schema.name] = Table(
                TableData(
                    schema=record.schema,
                    rows=dict(record.dropped_rows or {}),
                    next_rowid=record.next_rowid or 1,
                )
            )
        elif kind is RecordType.DROP_TABLE:
            # the stable file, if any, goes at the next checkpoint (a
            # restart that replays the DROP deletes it at once)
            self.tables.pop(record.schema.name, None)
        elif kind is RecordType.CREATE_PROC:
            self.procedures[record.proc_name] = record.proc_sql
        elif kind is RecordType.DROP_PROC:
            self.procedures.pop(record.proc_name, None)
        elif kind is RecordType.CREATE_VIEW:
            self.views[record.proc_name] = record.proc_sql
        elif kind is RecordType.DROP_VIEW:
            self.views.pop(record.proc_name, None)
        elif kind is RecordType.CREATE_INDEX:
            self._attach_index(record.proc_name, *_parse_index_sql(record.proc_sql))
        elif kind is RecordType.DROP_INDEX:
            self._detach_index(record.proc_name)
        else:
            raise TransactionError(f"a {kind.value} record changes no data")

    # ------------------------------------------------------- logged mutation API

    def _log(self, txn: Transaction, record: LogRecord) -> LogRecord:
        txn.require_active()
        if not txn.logged:
            self.wal.append(LogRecord(RecordType.BEGIN, txn_id=txn.txn_id))
            txn.logged = True
        self.wal.append(record)
        txn.records.append(record)
        return record

    def lock_write(self, txn: Transaction, table_name: str) -> None:
        """Whole-table exclusive lock (DDL, non-keyed DML scans)."""
        self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE)

    def lock_row_write(self, txn: Transaction, table_name: str, rowid: int) -> None:
        """IX on the table, then X on the row: what a keyed UPDATE or
        DELETE takes on each row it names before it reads it."""
        self.locks.acquire(txn.txn_id, table_name, LockMode.INTENT_EXCLUSIVE)
        self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE, row=rowid)

    def _wait_out_key(self, txn: Transaction, table_name: str, key: tuple) -> None:
        """Wait until no other transaction holds the primary-key value an
        INSERT or a key-changing UPDATE writes (one that vacated it may
        still roll back); a key nobody locks costs no acquire."""
        if self.locks.held_by_another(txn.txn_id, table_name, key):
            self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE, row=key)

    def insert_row(self, txn: Transaction, table_name: str, values: list) -> int:
        """Coerce, lock, log, and insert one row; returns its rowid.

        Validation (PK uniqueness) happens *before* the record is encoded
        into the log buffer, so a failed insert never leaves a phantom
        record behind; the rowid is pre-assigned for the same reason.

        Lock order: table IX first, then the wait for the row's key (both
        may wait), *then* read ``next_rowid`` and take X on it — a fresh
        rowid has no other holders, so the row acquire only ever waits when
        it trips escalation into a full table lock; the re-read afterwards
        picks up any rowids consumed during such a wait (the escalated
        table X covers whichever rowid we end up using).  Waiting on the key
        while holding the next rowid would block every other INSERT into
        the table, the key's holder's own included.
        """
        table = self.get_table(table_name)
        row = table.schema.coerce_row(values)
        self.locks.acquire(txn.txn_id, table_name, LockMode.INTENT_EXCLUSIVE)
        if table.schema.primary_key:
            self._wait_out_key(txn, table_name, table.schema.key_of(row))
        rowid = table.data.next_rowid
        self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE, row=rowid)
        rowid = table.data.next_rowid
        table.check_insert(row)
        self.apply(self._log(
            txn,
            LogRecord(
                RecordType.INSERT, txn_id=txn.txn_id, table=table_name,
                rowid=rowid, after=row,
            ),
        ))
        return rowid

    def delete_row(self, txn: Transaction, table_name: str, rowid: int) -> tuple:
        """Log and delete one row; returns its values.

        The caller already holds X on the row (:meth:`lock_row_write`) or
        on the table (:meth:`lock_write`) — the executor takes either before
        it reads the rows a statement deletes — so this takes only the lock
        on the primary key the row frees.
        """
        table = self.get_table(table_name)
        before = table.get(rowid)
        if before is None:
            raise CatalogError(f"rowid {rowid} not found in {table_name}")
        if table.schema.primary_key:
            # until this transaction ends its undo may need the key it frees
            # back, so no other transaction may take it
            key = table.schema.key_of(before)
            self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE, row=key)
        self.apply(self._log(
            txn,
            LogRecord(
                RecordType.DELETE, txn_id=txn.txn_id, table=table_name,
                rowid=rowid, before=before,
            ),
        ))
        return before

    def update_row(self, txn: Transaction, table_name: str, rowid: int, new_values: list) -> None:
        """Coerce, log and apply one row's new values.

        The caller already holds X on the row or on the table, as for
        :meth:`delete_row`; a key-moving update also locks the key it frees
        and waits out another transaction's lock on the key it takes.
        """
        table = self.get_table(table_name)
        new_row = table.schema.coerce_row(list(new_values))
        before = table.get(rowid)
        if before is None:
            raise CatalogError(f"rowid {rowid} not found in {table_name}")
        schema = table.schema
        if schema.primary_key:
            old_key, new_key = schema.key_of(before), schema.key_of(new_row)
            if new_key != old_key:
                # lock the key it frees, as delete_row does
                self.locks.acquire(txn.txn_id, table_name, LockMode.EXCLUSIVE, row=old_key)
                self._wait_out_key(txn, table_name, new_key)
        table.check_update(rowid, new_row)
        self.apply(self._log(
            txn,
            LogRecord(
                RecordType.UPDATE, txn_id=txn.txn_id, table=table_name,
                rowid=rowid, before=before, after=new_row,
            ),
        ))

    def create_table(self, txn: Transaction, schema: TableSchema) -> Table:
        if schema.name in self.tables:
            raise CatalogError(f"table {schema.name} already exists")
        self.apply(self._log(
            txn, LogRecord(RecordType.CREATE_TABLE, txn_id=txn.txn_id, schema=schema)
        ))
        self.lock_write(txn, schema.name)
        return self.tables[schema.name]

    def drop_table(self, txn: Transaction, name: str) -> None:
        table = self.get_table(name)
        self.lock_write(txn, name)
        for index_name in self.table_indexes(name):
            self.drop_index(txn, index_name)
        # NOTE: the stable table file is *not* deleted here — the DROP is not
        # durable until commit.  Checkpoint reconciles stale files away.
        self.apply(self._log(
            txn,
            LogRecord(
                RecordType.DROP_TABLE, txn_id=txn.txn_id, schema=table.schema,
                dropped_rows=dict(table.data.rows), next_rowid=table.data.next_rowid,
            ),
        ))

    def create_procedure(self, txn: Transaction, name: str, sql_text: str) -> None:
        if name in self.procedures:
            raise CatalogError(f"procedure {name} already exists")
        self.apply(self._log(
            txn,
            LogRecord(RecordType.CREATE_PROC, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        ))

    def drop_procedure(self, txn: Transaction, name: str) -> None:
        sql_text = self.get_procedure(name)
        self.apply(self._log(
            txn,
            LogRecord(RecordType.DROP_PROC, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        ))

    def create_view(self, txn: Transaction, name: str, sql_text: str) -> None:
        if name in self.views:
            raise CatalogError(f"view {name} already exists")
        self.apply(self._log(
            txn,
            LogRecord(RecordType.CREATE_VIEW, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        ))

    def drop_view(self, txn: Transaction, name: str) -> None:
        sql_text = self.get_view(name)
        self.apply(self._log(
            txn,
            LogRecord(RecordType.DROP_VIEW, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        ))

    def _attach_index(self, name: str, table: str, column: str) -> None:
        """Register the index and build its ordered structure.

        The :class:`~repro.engine.table.OrderedIndex` built here is derived
        state — never logged or snapshotted; a CREATE INDEX record reaches
        it through :meth:`apply`, and a loaded table image through
        :meth:`attach_indexes`.  Adding (or dropping) the structure moves
        the table's ``version``, which invalidates the cached plans that
        bound the table: probes and top-k orderings can never reference an
        index that no longer matches the catalog.
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

    def attach_indexes(self) -> None:
        """Build the structure of every catalogued index over the tables a
        restart or a time-travel reconstruction loaded (a structure already
        built stays as it is); an index whose table is gone — dropped
        without its index record surviving — leaves the catalog."""
        for name, (table_name, column) in list(self.indexes.items()):
            table = self.tables.get(table_name)
            if table is None:
                del self.indexes[name]
            else:
                table.add_secondary_index(column)

    def create_index(self, txn: Transaction, name: str, table: str, column: str) -> None:
        if name in self.indexes:
            raise CatalogError(f"index {name} already exists")
        table_obj = self.get_table(table)
        table_obj.schema.column_index(column)  # validate the column exists
        sql_text = f"CREATE INDEX {name} ON {table} ({column})"
        self.apply(self._log(
            txn,
            LogRecord(RecordType.CREATE_INDEX, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        ))

    def drop_index(self, txn: Transaction, name: str) -> None:
        if name not in self.indexes:
            raise CatalogError(f"index {name} does not exist")
        table, column = self.indexes[name]
        sql_text = f"CREATE INDEX {name} ON {table} ({column})"
        self.apply(self._log(
            txn,
            LogRecord(RecordType.DROP_INDEX, txn_id=txn.txn_id, proc_name=name, proc_sql=sql_text),
        ))

    def close_unended(self, txn_ids: list[int]) -> None:
        """End transactions the log leaves open — a crash's losers, or
        those a ``restore_to`` cut off — with one bare ABORT record each,
        in one forced write: no CLRs, since none of their effects is in the
        tables.  Later reads of the log then see every one of them ended,
        before a boot hands its id out again."""
        if txn_ids:
            self.wal.append_forced(
                [LogRecord(RecordType.ABORT, txn_id=txn_id) for txn_id in txn_ids]
            )

    def rollback_statement(self, txn: Transaction, mark: int) -> None:
        """Partial rollback: undo the transaction's records past ``mark``
        (statement-level atomicity for a failed statement inside an explicit
        transaction).

        The CLRs go out as one atomic log append.  They belong to the
        transaction like its other records: restart replays them with it if
        it commits and skips them with it if it loses.
        """
        txn.require_active()
        to_undo = txn.records[mark:]
        if not to_undo:
            return
        clrs = self._undo(to_undo)
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

        Undo runs in reverse global LSN order across all active
        transactions (their in-memory undo trails), on a scratch database
        that holds a copy of each table they name, leaving the live tables
        untouched.  ``next_rowid``
        is *not* rolled back for undone inserts: rowids are never reused,
        and keeping the high-water mark in the image means a loser's rowids
        stay burned even though their rows never reach the file.
        """
        pending = sorted(
            (
                record
                for txn_id in self.txns.active_ids()
                for record in self.txns.get(txn_id).records
            ),
            key=lambda r: r.lsn,
        )
        named = {
            record.table or record.schema.name
            for record in pending
            if record.table or record.schema
        }
        image = Database(
            self.storage,
            tables={
                name: Table(self.tables[name].data.snapshot())
                for name in named
                if name in self.tables
            },
            procedures=dict(self.procedures),
            views=dict(self.views),
        )
        image.indexes = dict(self.indexes)
        image._undo(pending)
        tables = {
            name: table.data.snapshot()
            for name, table in self.tables.items()
            if name not in named
        }
        tables.update((name, table.data) for name, table in image.tables.items())
        return tables, image.procedures, image.views, image.indexes

    def checkpoint(self) -> int:
        """Write a clean checkpoint; returns the checkpoint record's LSN.

        Order (each step safe against a crash after it):

        1. force the WAL (write-ahead rule: every image effect is logged);
        2. build clean images — active transactions' effects undone in the
           copies (see :meth:`_clean_images`);
        3. append + force a CHECKPOINT record noting in-flight transactions
           (those that logged: one that has not yet will write its BEGIN
           past this record);
        4. write every table file from its clean image, stamped with the
           checkpoint LSN (a transaction committed at or below that LSN is
           in the file; one committing past it is not — no in-between),
           then delete the files of dropped tables;
        5. if no transaction in flight has logged, move the redo start to
           the checkpoint; write the redo start and the clean catalog,
           stamped like the files, as the one meta entry.

        A crash between 3 and 5 leaves meta at the *old* redo start and
        catalog; files already rewritten in step 4 carry the new stamp and
        each is self-consistent, so the per-table commit-LSN guard in
        recovery stays exact even for a torn checkpoint.  Nothing is cut
        from the log: the bytes below the redo start are the history time
        travel reads.
        """
        self.wal.force()
        images, procedures, views, indexes = self._clean_images()
        active = tuple(self.txns.logged_ids())
        (lsn,) = self.wal.append_forced(
            [LogRecord(RecordType.CHECKPOINT, active_txns=active)]
        )
        self._write_images(lsn, images)
        if not active:
            self.redo_start = lsn
        self._write_meta(lsn, procedures, views, indexes)
        return lsn

    def write_cut(self, cut_lsn: int) -> None:
        """Write this database — the state at ``cut_lsn`` that time travel
        reconstructed — to the device as images stamped ``cut_lsn``, under
        a redo start of 0: the first step of ``restore_to``.

        The redo start goes first, beside the catalog meta already holds.
        Until ``restore_to`` cuts the log after the cut, a restart replays
        every transaction committed past the cut onto these images, which
        is the state before the restore; after that, no new record can land
        at or below any image's stamp.
        """
        self.redo_start = 0
        held = self.storage.read_meta(_META, CheckpointMeta())
        self._write_meta(held.catalog_lsn, held.procedures, held.views, held.indexes)
        self._write_images(cut_lsn, {name: table.data for name, table in self.tables.items()})
        self._write_meta(cut_lsn, self.procedures, self.views, self.indexes)

    def _write_images(self, stamp: int, tables: dict[str, TableData]) -> None:
        for name, data in tables.items():
            data.last_lsn = stamp
            self.storage.write_table_file(name, data)
        for stale in set(self.storage.list_table_files()) - set(tables):
            self.storage.delete_table_file(stale)

    def _write_meta(self, catalog_lsn: int, procedures, views, indexes) -> None:
        # every commit the log holds was stamped before this clock reading
        self.storage.write_meta(
            _META,
            CheckpointMeta(
                self.redo_start, self.wal.clock.now(), procedures, views, indexes, catalog_lsn
            ),
        )


def _parse_index_sql(sql_text: str) -> tuple[str, str]:
    """Extract (table, column) from a generated CREATE INDEX statement."""
    from repro.sql import parse

    stmt = parse(sql_text)
    return stmt.table.lower(), stmt.column.lower()
