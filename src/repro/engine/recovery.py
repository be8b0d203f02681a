"""Restart recovery: rebuild a :class:`~repro.engine.database.Database` from
stable storage after a crash.

**REDO-only restart** (DESIGN.md §5/§5b).  Checkpoints write *clean*
(no-steal) table images — every active transaction's effects are undone in
the copies before the files go out (:meth:`Database._clean_images`) — so a
table file contains exactly the effects of transactions that committed at
or before its snapshot LSN.  That turns restart into two cheap passes:

1. **Analysis** — scan the durable log from the *redo start* the last
   quiescent checkpoint noted in meta (truncating any torn tail); classify
   each transaction as *winner* (has a COMMIT), *aborted* (has an ABORT —
   its effects were already undone in memory and the clean images never
   saw them), or *loser* (no terminator).  The bytes below the redo start
   are history: a boot decodes none of them.
2. **Redo winners forward** — replay winners' records in log order,
   whole-transaction-at-a-time: a winner's records are applied iff its
   *commit* LSN is past the target table's snapshot LSN (catalog records
   compare against the catalog snapshot LSN).  Losers and aborted
   transactions are **skipped wholesale** — no undo images are walked, no
   CLRs are generated per record; each loser is closed with one bare ABORT
   record so the next restart's analysis sees it ended.

The per-transaction guard is exact because commit is atomic with respect
to checkpointing (both run under the engine mutex): a transaction either
committed before the CHECKPOINT record — all of its effects are in the
clean image — or after it, in which case none are.  A crash *during* a
checkpoint leaves files with mixed stamps, but each file is individually
clean as of its own stamp, so the guard still holds per table.

Restart cost therefore scales with the number of winner records past the
last checkpoint — not with loser count or undo-trail length.  This is the
only restart path: the undo-walking design it replaced was retired once its
last measured comparison was frozen in docs/HISTORY.md (Experiment RS).

What is deliberately *not* recovered: sessions, temp tables, temp
procedures, open cursors, and undelivered result sets.  They were never
logged.  This is the paper's starting point — database recovery alone does
not bring applications back.
"""

from __future__ import annotations

from repro.engine.database import _META, CheckpointMeta, Database
from repro.engine.locks import LockStats
from repro.engine.storage import StableStorage, TableData
from repro.engine.table import Table
from repro.engine.wal import LogRecord, RecordType, WalStats, scan_log
from repro.obs.tracer import get_tracer

__all__ = ["recover", "RecoveryReport"]


class RecoveryReport:
    """What a restart did — surfaced for tests, logging, and benchmarks."""

    def __init__(self):
        #: the LSN the log was read from (bytes below it are history)
        self.redo_start: int = 0
        self.records_scanned: int = 0
        self.records_redone: int = 0
        #: records skipped without inspection because their transaction lost,
        #: aborted, or committed before the covering snapshot
        self.records_skipped: int = 0
        self.loser_txns: list[int] = []
        self.committed_txns: list[int] = []
        self.tables_loaded: int = 0
        #: garbage bytes a torn tail write left past the last intact frame
        #: (truncated before the database comes up; 0 for a clean log)
        self.torn_tail_bytes: int = 0
        #: no commit in the whole log is stamped later than this: the clock
        #: reading meta holds for the history below the redo start, or the
        #: latest stamp the scan met
        self.last_commit_ts: float = 0.0

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(redo_start={self.redo_start}, "
            f"scanned={self.records_scanned}, redone={self.records_redone}, "
            f"skipped={self.records_skipped}, losers={self.loser_txns}, "
            f"tables={self.tables_loaded}, torn_tail={self.torn_tail_bytes})"
        )


def recover(
    storage: StableStorage,
    *,
    wal_stats: WalStats | None = None,
    lock_stats: LockStats | None = None,
) -> tuple[Database, RecoveryReport]:
    """Build a consistent Database from ``storage``; returns it plus a report.

    ``wal_stats``/``lock_stats`` thread the server's cumulative counters
    into the new incarnation (counters outlive crashes; see
    :class:`WalStats`).
    """
    with get_tracer().span("engine.recovery") as span:
        database, report = _recover(storage, wal_stats=wal_stats, lock_stats=lock_stats)
        span.set(
            scanned=report.records_scanned,
            redone=report.records_redone,
            skipped=report.records_skipped,
            losers=len(report.loser_txns),
            tables=report.tables_loaded,
            torn_tail_bytes=report.torn_tail_bytes,
        )
        return database, report


def _recover(
    storage: StableStorage,
    *,
    wal_stats: WalStats | None = None,
    lock_stats: LockStats | None = None,
) -> tuple[Database, RecoveryReport]:
    report = RecoveryReport()
    meta: CheckpointMeta = storage.read_meta(_META, CheckpointMeta())
    start, clock_reading = meta.redo_start, meta.clock
    raw = storage.read_log(start)
    records, good_end = scan_log(raw, base_offset=start)
    report.redo_start = start
    report.records_scanned = len(records)
    report.torn_tail_bytes = start + len(raw) - good_end
    if report.torn_tail_bytes:
        # A torn tail is dead weight *and* a trap: appending after it would
        # put every future record beyond the scan's reach.  Cut it now.
        storage.truncate_log_suffix(good_end)

    # ---- analysis ----------------------------------------------------------
    commit_of, losers = attribute(records)
    max_txn_id = 0
    committed: set[int] = set()
    #: highest rowid any record (winner or not) names, per table — losers'
    #: rowids must stay burned even though their rows are never replayed
    max_rowid: dict[str, int] = {}
    for record in records:
        if record.txn_id > max_txn_id:
            max_txn_id = record.txn_id
        if record.type is RecordType.COMMIT:
            committed.add(record.txn_id)
            clock_reading = max(clock_reading, record.commit_ts)
        if record.rowid is not None and record.table is not None:
            if record.rowid > max_rowid.get(record.table, 0):
                max_rowid[record.table] = record.rowid
    report.loser_txns = losers
    report.committed_txns = sorted(committed)
    report.last_commit_ts = clock_reading

    # ---- load snapshots -----------------------------------------------------
    tables: dict[str, Table] = {}
    for name in storage.list_table_files():
        data: TableData = storage.read_table_file(name)
        tables[name] = Table(data)
    report.tables_loaded = len(tables)
    #: frozen per-table snapshot LSNs — the replay guard compares *commit*
    #: LSNs against these, so they must not move as records are applied
    snapshot_lsn: dict[str, int] = {
        name: table.data.last_lsn for name, table in tables.items()
    }

    database = Database(
        storage,
        tables=tables,
        procedures=meta.procedures,
        views=meta.views,
        txn_seed=max_txn_id,
        wal_stats=wal_stats,
        lock_stats=lock_stats,
    )
    database.indexes = meta.indexes
    database.redo_start = start

    # ---- redo winners forward (REDO-only restart) ----------------------
    # One pass in log order: a record is applied iff its transaction
    # committed *after* the target's snapshot — whole transactions are
    # replayed or skipped, never individual records.  Log order across
    # the surviving records preserves every cross-transaction per-row
    # ordering 2PL established at run time.
    for record, commit_lsn in zip(records, commit_of):
        if commit_lsn is None:
            if record.type not in (
                RecordType.BEGIN,
                RecordType.ABORT,
                RecordType.CHECKPOINT,
            ):
                report.records_skipped += 1
            continue
        _replay(record, commit_lsn, database, snapshot_lsn, meta.catalog_lsn, report)

    # Close every loser: the clean images never contained loser effects
    # and the replay never applied them.
    database.close_unended(losers)

    # ---- burn skipped rowids ----------------------------------------------
    # Rowids are never reused: a fresh insert must not land on a rowid a
    # skipped loser consumed, or a later replay of this log would be
    # ambiguous about which row a record names.
    for name, highest in max_rowid.items():
        table = database.tables.get(name)
        if table is not None and table.data.next_rowid <= highest:
            table.data.next_rowid = highest + 1

    # ---- rebuild volatile index structures -------------------------------------
    database.attach_indexes()

    return database, report


def attribute(records: list[LogRecord]) -> tuple[list[int | None], list[int]]:
    """Match each record to the COMMIT that closes its transaction.

    Returns ``(commit_of, open_txns)``: ``commit_of[i]`` is the LSN of the
    COMMIT of ``records[i]``'s transaction (None while it is open, or when
    it aborted), ``open_txns`` the ids with records and no COMMIT or ABORT
    yet, ascending.  A transaction id names one transaction only until it
    ends — each boot seeds ids from the log it reads, so a log read from
    further back than the redo start (time travel, or the restart after a
    ``restore_to`` that died) meets an id again — so a COMMIT claims the
    records since its id last ended, and an ABORT drops them.
    """
    commit_of: list[int | None] = [None] * len(records)
    pending: dict[int, list[int]] = {}
    for i, record in enumerate(records):
        if not record.txn_id:  # a CHECKPOINT belongs to no transaction
            continue
        if record.type is RecordType.COMMIT:
            commit_of[i] = record.lsn
            for j in pending.pop(record.txn_id, ()):
                commit_of[j] = record.lsn
        elif record.type is RecordType.ABORT:
            pending.pop(record.txn_id, None)
        else:
            pending.setdefault(record.txn_id, []).append(i)
    return commit_of, sorted(pending)


def _replay(
    record: LogRecord,
    commit_lsn: int,
    database: Database,
    snapshot_lsn: dict[str, int],
    catalog_lsn: int,
    report: RecoveryReport,
) -> None:
    """Apply one winner record unless its whole transaction predates the
    target's snapshot.  CLRs from statement-level rollbacks are part of the
    winner's stream and replay like any other record (a CLR DELETE deletes)."""
    if record.type in _MARKERS:
        return
    if record.schema is not None:  # a table's CREATE or DROP
        target_lsn = snapshot_lsn.get(record.schema.name, 0)
    elif record.table is not None:  # a row's INSERT, DELETE or UPDATE
        # a table missing here was dropped later in the log by another
        # winner (its row history is moot) — a missing CREATE would mean a
        # redo start past it, which only a quiescent checkpoint moves
        if record.table not in database.tables:
            report.records_skipped += 1
            return
        target_lsn = snapshot_lsn.get(record.table, 0)
    else:  # procedure, view and index DDL: the catalog snapshot
        target_lsn = catalog_lsn
    if commit_lsn <= target_lsn:
        report.records_skipped += 1
        return
    database.apply(record)
    report.records_redone += 1
    if record.schema is not None and record.schema.name not in database.tables:
        # a replayed DROP TABLE: its file would bring the table back
        database.storage.delete_table_file(record.schema.name)


#: records that mark a transaction's or the log's progress and change no data
_MARKERS = frozenset((RecordType.BEGIN, RecordType.COMMIT, RecordType.CHECKPOINT))
