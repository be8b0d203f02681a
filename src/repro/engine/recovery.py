"""Restart recovery: rebuild a :class:`~repro.engine.database.Database` from
stable storage after a crash.

**REDO-only restart** (DESIGN.md §5/§5b).  Checkpoints write *clean*
(no-steal) table images — every active transaction's effects are undone in
the copies before the files go out (:meth:`Database._clean_images`) — so a
table file contains exactly the effects of transactions that committed at
or before its snapshot LSN.  That turns restart into two cheap passes:

1. **Analysis** — scan the durable log (truncating any torn tail);
   classify each transaction as *winner* (has a COMMIT), *aborted* (has an
   ABORT — its effects were already undone in memory and the clean images
   never saw them), or *loser* (no terminator).
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
last measured comparison was frozen in EXPERIMENTS.md (Experiment RS).

What is deliberately *not* recovered: sessions, temp tables, temp
procedures, open cursors, and undelivered result sets.  They were never
logged.  This is the paper's starting point — database recovery alone does
not bring applications back.
"""

from __future__ import annotations

from repro.errors import RecoveryError
from repro.engine.database import (
    Database,
    _META_CHECKPOINT,
    _META_INDEXES,
    _META_PROCEDURES,
    _META_VIEWS,
)
from repro.engine.locks import LockStats
from repro.engine.storage import StableStorage, TableData
from repro.engine.table import Table
from repro.engine.wal import LogRecord, RecordType, WalStats, scan_log
from repro.obs.tracer import get_tracer

__all__ = ["recover", "RecoveryReport"]


class RecoveryReport:
    """What a restart did — surfaced for tests, logging, and benchmarks."""

    def __init__(self):
        self.checkpoint_lsn: int = 0
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
        #: ``(lsn, frame end, commit_ts or None)`` of every COMMIT in the
        #: live log, in log order — the live half of the time-travel index,
        #: a by-product of the one scan a boot makes
        self.live_commits: list[tuple[int, int, float | None]] = []

    def __repr__(self) -> str:
        return (
            f"RecoveryReport(checkpoint={self.checkpoint_lsn}, "
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
    base = storage.log_base
    raw = storage.read_log()
    records, good_end = scan_log(raw, base_offset=base)
    report.records_scanned = len(records)
    report.torn_tail_bytes = base + len(raw) - good_end
    if report.torn_tail_bytes:
        # A torn tail is dead weight *and* a trap: appending after it would
        # put every future record beyond the scan's reach.  Cut it now.
        storage.truncate_log_suffix(good_end)

    checkpoint_lsn = int(storage.read_meta(_META_CHECKPOINT, 0) or 0)
    report.checkpoint_lsn = checkpoint_lsn

    # ---- analysis ----------------------------------------------------------
    #: winner txn -> LSN of its COMMIT record (the replay guard value)
    winners: dict[int, int] = {}
    aborted: set[int] = set()
    seen: set[int] = set()
    max_txn_id = 0
    #: highest rowid any record (winner or not) names, per table — losers'
    #: rowids must stay burned even though their rows are never replayed
    max_rowid: dict[str, int] = {}
    for i, record in enumerate(records):
        if record.txn_id:
            seen.add(record.txn_id)
            max_txn_id = max(max_txn_id, record.txn_id)
        if record.type is RecordType.COMMIT:
            winners[record.txn_id] = record.lsn
            end = records[i + 1].lsn if i + 1 < len(records) else good_end
            report.live_commits.append((record.lsn, end, record.commit_ts))
        elif record.type is RecordType.ABORT:
            aborted.add(record.txn_id)
        if record.rowid is not None and record.table is not None:
            if record.rowid > max_rowid.get(record.table, 0):
                max_rowid[record.table] = record.rowid
    losers = sorted(seen - set(winners) - aborted)
    report.loser_txns = losers
    report.committed_txns = sorted(winners)

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

    proc_snapshot = storage.read_meta(_META_PROCEDURES, ({}, 0)) or ({}, 0)
    procedures: dict[str, str] = dict(proc_snapshot[0])
    proc_lsn = int(proc_snapshot[1])
    view_snapshot = storage.read_meta(_META_VIEWS, ({}, 0)) or ({}, 0)
    views: dict[str, str] = dict(view_snapshot[0])
    index_snapshot = storage.read_meta(_META_INDEXES, ({}, 0)) or ({}, 0)

    database = Database(
        storage,
        tables=tables,
        procedures=procedures,
        views=views,
        txn_seed=max_txn_id,
        wal_stats=wal_stats,
        lock_stats=lock_stats,
    )
    database.indexes = dict(index_snapshot[0])
    # recovery replays through a fresh WAL object; keep the one Database made
    wal = database.wal

    # ---- redo winners forward (REDO-only restart) ----------------------
    # One pass in log order: a record is applied iff its transaction
    # committed *after* the target's snapshot — whole transactions are
    # replayed or skipped, never individual records.  Log order across
    # the surviving records preserves every cross-transaction per-row
    # ordering 2PL established at run time.
    for record in records:
        commit_lsn = winners.get(record.txn_id)
        if commit_lsn is None:
            if record.type not in (
                RecordType.BEGIN,
                RecordType.ABORT,
                RecordType.CHECKPOINT,
            ):
                report.records_skipped += 1
            continue
        _replay(record, commit_lsn, database, snapshot_lsn, proc_lsn, report)

    # Close every loser with one bare ABORT record — no CLRs, nothing to
    # undo: the clean images never contained loser effects and the
    # replay never applied them.  The batch makes the next restart's
    # analysis see these transactions ended.
    if losers:
        wal.append_forced(
            [LogRecord(RecordType.ABORT, txn_id=txn_id) for txn_id in losers]
        )

    # ---- burn skipped rowids ----------------------------------------------
    # Rowids are never reused: a fresh insert must not land on a rowid a
    # skipped loser consumed, or a later replay of this log would be
    # ambiguous about which row a record names.
    for name, highest in max_rowid.items():
        table = database.tables.get(name)
        if table is not None and table.data.next_rowid <= highest:
            table.data.next_rowid = highest + 1

    # ---- rebuild volatile index structures -------------------------------------
    for name, (table_name, column) in list(database.indexes.items()):
        table = database.tables.get(table_name)
        if table is None:
            # table dropped without its index record surviving — reconcile
            del database.indexes[name]
            continue
        table.add_secondary_index(column)

    return database, report


def _replay(
    record: LogRecord,
    commit_lsn: int,
    database: Database,
    snapshot_lsn: dict[str, int],
    proc_lsn: int,
    report: RecoveryReport,
) -> None:
    """Apply one winner record unless its whole transaction predates the
    target's snapshot.  CLRs from statement-level rollbacks are part of the
    winner's stream and replay like any other record (a CLR DELETE deletes)."""
    kind = record.type
    if kind in (RecordType.BEGIN, RecordType.COMMIT, RecordType.CHECKPOINT):
        return
    if kind is RecordType.CREATE_TABLE:
        if commit_lsn <= snapshot_lsn.get(record.schema.name, 0):
            report.records_skipped += 1
            return
        database.tables[record.schema.name] = Table(
            TableData(
                schema=record.schema,
                rows=dict(record.dropped_rows or {}),
                next_rowid=record.next_rowid or 1,
                last_lsn=record.lsn,
            )
        )
        report.records_redone += 1
        return
    if kind is RecordType.DROP_TABLE:
        if commit_lsn <= snapshot_lsn.get(record.schema.name, 0):
            report.records_skipped += 1
            return
        database.tables.pop(record.schema.name, None)
        database.storage.delete_table_file(record.schema.name)
        report.records_redone += 1
        return
    if kind in _CATALOG_TYPES:
        if commit_lsn <= proc_lsn:
            report.records_skipped += 1
            return
        if kind is RecordType.CREATE_PROC:
            database.procedures[record.proc_name] = record.proc_sql
        elif kind is RecordType.DROP_PROC:
            database.procedures.pop(record.proc_name, None)
        elif kind is RecordType.CREATE_VIEW:
            database.views[record.proc_name] = record.proc_sql
        elif kind is RecordType.DROP_VIEW:
            database.views.pop(record.proc_name, None)
        elif kind is RecordType.CREATE_INDEX:
            from repro.engine.database import _parse_index_sql

            database.indexes[record.proc_name] = _parse_index_sql(record.proc_sql)
        elif kind is RecordType.DROP_INDEX:
            database.indexes.pop(record.proc_name, None)
        report.records_redone += 1
        return

    if commit_lsn <= snapshot_lsn.get(record.table, 0):
        report.records_skipped += 1
        return
    table = database.tables.get(record.table)
    if table is None:
        # The table was dropped later in the log by another winner (its row
        # history is moot) — a missing CREATE would mean a truncated-too-far
        # log, which the quiescent-only truncation rule prevents.
        report.records_skipped += 1
        return
    if kind is RecordType.INSERT:
        table.insert(record.after, rowid=record.rowid)
    elif kind is RecordType.DELETE:
        table.delete(record.rowid)
    elif kind is RecordType.UPDATE:
        table.update(record.rowid, record.after)
    else:
        raise RecoveryError(f"unexpected record type {kind}")
    table.data.last_lsn = record.lsn
    report.records_redone += 1


_CATALOG_TYPES = frozenset(
    (
        RecordType.CREATE_PROC,
        RecordType.DROP_PROC,
        RecordType.CREATE_VIEW,
        RecordType.DROP_VIEW,
        RecordType.CREATE_INDEX,
        RecordType.DROP_INDEX,
    )
)
