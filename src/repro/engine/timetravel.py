"""Time travel from the WAL: point-in-time query and restore-to-timestamp.

The WAL already records every change the database ever committed; Talius
et al. (PAPERS.md) observe that this makes the log itself a time machine —
no full backups needed.  This module is that machine:

* :class:`LogIndex` — maps commit timestamps to cut LSNs.  Commit records
  are stamped at *device-force* time (:meth:`WriteAheadLog._flush_commits`),
  so every commit covered by one group force shares one instant and a
  batch is all-or-none under any cut.  The index is volatile; a boot
  reloads it from what it reads anyway — the archive's fixed-width commit
  rows plus the commits restart recovery's scan of the live log met — so
  no log record is decoded for the index's sake.
* :func:`reconstruct_at` — replays committed history up to a cut LSN into
  a fresh, throwaway-storage :class:`Database`: the read-only snapshot
  ``SELECT ... AS OF <ts>`` queries run against.
* :class:`TimeTravelManager` — owns the clock, the index, and an LRU cache
  of reconstructed snapshots (one executor *per cut*, so plan caching is
  naturally keyed per cut).  ``DatabaseServer`` attaches one per system;
  ``restore_to(ts)`` uses :func:`restore_storage_to` to rewrite stable
  storage to a cut and then boots a fresh engine from it.

**Cut semantics.**  A *cut* is the LSN of a COMMIT record; the state at a
cut is every transaction whose commit LSN is ``<= cut``, in log order —
exactly restart recovery's winner set, evaluated at a past moment.
``AS OF ts`` resolves to the last commit whose timestamp is ``<= ts``
(the empty database when there is none).  Uncommitted and aborted
transactions are invisible at every cut, a quiescent checkpoint archives
the log prefix it truncates (:meth:`StableStorage.append_archive`) so no
cut is ever lost, and ``restore_to`` *discards* post-cut history — by
design, that is the application-error-recovery story.  See
docs/TIME_TRAVEL.md.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import chain

from repro.errors import TimeTravelError
from repro.engine.database import Database
from repro.engine.recovery import RecoveryReport, _replay
from repro.engine.storage import InMemoryStableStorage, StableStorage
from repro.engine.wal import CommitClock, RecordType, scan_log
from repro.obs.metrics import CounterSet
from repro.obs.tracer import get_tracer

__all__ = [
    "LogIndex",
    "ReconstructInfo",
    "TimeTravelManager",
    "TimeTravelStats",
    "full_log_records",
    "reconstruct_at",
]

#: reconstructed snapshots a manager keeps (LRU) — each holds a whole
#: database copy, and ``AS OF`` readers rarely pin more than a few cuts
MAX_SNAPSHOTS = 4


class TimeTravelStats(CounterSet):
    """Time-travel counters — the ``timetravel`` slot of the registry."""

    as_of_queries: int = 0
    reconstructions: int = 0
    records_replayed: int = 0
    snapshot_hits: int = 0
    restores_started: int = 0
    restores_completed: int = 0
    #: committed transactions discarded by restore_to (post-cut history)
    commits_discarded: int = 0


class LogIndex:
    """Commit timestamp → cut LSN, over the full archived + live history.

    Entries arrive in LSN order with strictly increasing timestamps (the
    :class:`CommitClock` guarantees it), so both columns are sorted and
    ``floor`` is a bisect.  Volatile: :meth:`load` refills it at boot;
    :meth:`note_commit` keeps it live afterwards (called by the WAL after
    each successful device force).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._lsns: list[int] = []
        self._ends: list[int] = []
        self._tss: list[float] = []

    def __len__(self) -> int:
        return len(self._lsns)

    def note_commit(self, lsn: int, end: int, ts: float) -> None:
        with self._lock:
            if self._tss and ts <= self._tss[-1]:
                ts = self._tss[-1] + 1e-9  # defensive: keep bisect valid
            self._lsns.append(lsn)
            self._ends.append(end)
            self._tss.append(ts)

    def floor(self, ts: float) -> tuple[int, int, float] | None:
        """The last commit at or before ``ts`` as ``(lsn, end, ts)``;
        None when ``ts`` predates every commit."""
        with self._lock:
            i = bisect.bisect_right(self._tss, ts)
            if i == 0:
                return None
            return self._lsns[i - 1], self._ends[i - 1], self._tss[i - 1]

    def latest(self) -> tuple[int, int, float] | None:
        with self._lock:
            if not self._lsns:
                return None
            return self._lsns[-1], self._ends[-1], self._tss[-1]

    def cuts(self) -> list[tuple[float, int]]:
        """Every known cut as ``(ts, lsn)``, oldest first."""
        with self._lock:
            return list(zip(self._tss, self._lsns))

    def truncate_to(self, cut_lsn: int) -> int:
        """Drop entries past ``cut_lsn`` (restore_to discarded them);
        returns how many were dropped."""
        with self._lock:
            i = bisect.bisect_right(self._lsns, cut_lsn)
            dropped = len(self._lsns) - i
            del self._lsns[i:], self._ends[i:], self._tss[i:]
            return dropped

    def end_for(self, cut_lsn: int) -> int | None:
        """End offset of the commit frame at ``cut_lsn`` (None if unknown)."""
        with self._lock:
            i = bisect.bisect_left(self._lsns, cut_lsn)
            if i < len(self._lsns) and self._lsns[i] == cut_lsn:
                return self._ends[i]
            return None

    def rows(self, start: int, stop: int) -> list[tuple[int, int, float]]:
        """``(lsn, end, ts)`` of the commits at ``start <= lsn < stop`` —
        what a checkpoint stores beside the log prefix it archives."""
        with self._lock:
            i = bisect.bisect_left(self._lsns, start)
            j = bisect.bisect_left(self._lsns, stop)
            return list(zip(self._lsns[i:j], self._ends[i:j], self._tss[i:j]))

    def load(self, rows) -> None:
        """Replace the index with ``rows`` — ``(lsn, end, ts)`` in LSN
        order.  A commit missing its stamp (logs written before this
        feature) gets a synthesized monotonic one."""
        with self._lock:
            self._lsns.clear()
            self._ends.clear()
            self._tss.clear()
            last_ts = 0.0
            for lsn, end, ts in rows:
                if ts is None or ts <= last_ts:
                    ts = last_ts + 1e-9
                last_ts = ts
                self._lsns.append(lsn)
                self._ends.append(end)
                self._tss.append(ts)


def full_log_records(storage: StableStorage):
    """Decode the *entire* committed history: archive segments + live log.

    Returns ``(records, start_lsn, ends)`` where ``ends[i]`` is the end
    offset of ``records[i]``'s frame (what a restore truncating *after*
    that record keeps).  Gaps between segments are legitimate (history
    erased by a ``restore_to`` below the log base); an *overlap* means the
    archive is corrupt and raises :class:`TimeTravelError`.
    """
    segments = storage.archive_segments()
    segments.append((storage.log_base, None, storage.read_log()))  # the live log
    records: list = []
    ends: list[int] = []
    prev_end = 0
    for seg_start, seg_end, blob in segments:
        if seg_start < prev_end:
            raise TimeTravelError(
                f"time-travel archive segments overlap at LSN {seg_start} "
                f"(previous segment ends at {prev_end}): history is corrupt"
            )
        seg_records, good_end = scan_log(blob, base_offset=seg_start)
        for i, record in enumerate(seg_records):
            records.append(record)
            ends.append(
                seg_records[i + 1].lsn if i + 1 < len(seg_records) else good_end
            )
        prev_end = good_end if seg_end is None else seg_end
    start = segments[0][0]
    return records, start, ends


@dataclass
class ReconstructInfo:
    """What one reconstruction did (the ``timetravel.reconstruct`` span
    carries the same numbers)."""

    cut_lsn: int
    records_scanned: int = 0
    records_replayed: int = 0
    tables: int = 0
    winners: int = 0
    #: highest transaction id anywhere in the scanned history — restore
    #: seeds the fresh engine past it so ids are never reused across a cut
    max_txn_id: int = 0


def reconstruct_at(
    storage: StableStorage, cut_lsn: int
) -> tuple[Database, ReconstructInfo]:
    """Replay committed history up to ``cut_lsn`` into a fresh Database.

    The returned database lives on a *throwaway* in-memory storage: replay
    side effects (dropped-table file deletes) must never touch the real
    device, and nothing the snapshot does is durable.  Reconstruction
    reuses restart recovery's ``_replay`` with the winner set restricted
    to commits at or below the cut — the snapshot is exactly what a crash
    recovery at that moment would have produced.
    """
    with get_tracer().span("timetravel.reconstruct", cut=cut_lsn) as span:
        records, start, _ends = full_log_records(storage)
        if cut_lsn < start:
            raise TimeTravelError(
                f"cut LSN {cut_lsn} predates the replayable history "
                f"(archive starts at {start})"
            )
        info = ReconstructInfo(cut_lsn=cut_lsn, records_scanned=len(records))
        # Attribute each record to the COMMIT that closes it.  Transaction
        # ids are *reused* across server incarnations (each boot reseeds),
        # so a bare txn-id → commit map would fold two different
        # transactions into one; instead a forward walk tracks the open
        # incarnation per id — a COMMIT claims the records accumulated
        # since the id's last closure, an ABORT discards them.
        commit_of: dict[int, int] = {}  # record index -> owning commit LSN
        pending: dict[int, list[int]] = {}
        winners = 0
        for i, record in enumerate(records):
            if record.txn_id > info.max_txn_id:
                info.max_txn_id = record.txn_id
            pending.setdefault(record.txn_id, []).append(i)
            if record.type is RecordType.COMMIT:
                indices = pending.pop(record.txn_id, [])
                if record.lsn <= cut_lsn:
                    winners += 1
                    for idx in indices:
                        commit_of[idx] = record.lsn
            elif record.type is RecordType.ABORT:
                pending.pop(record.txn_id, None)
        info.winners = winners

        database = Database(InMemoryStableStorage(), tables={}, procedures={}, views={})
        report = RecoveryReport()
        snapshot_lsn: dict[str, int] = {}
        for i, record in enumerate(records):
            commit_lsn = commit_of.get(i)
            if commit_lsn is None:
                continue
            _replay(record, commit_lsn, database, snapshot_lsn, 0, report)
        for name, (table_name, column) in list(database.indexes.items()):
            table = database.tables.get(table_name)
            if table is None:
                del database.indexes[name]
                continue
            table.add_secondary_index(column)
        info.records_replayed = report.records_redone
        info.tables = len(database.tables)
        #: marks the database as a frozen point-in-time snapshot
        database.frozen_cut = cut_lsn
        span.set(
            scanned=info.records_scanned,
            replayed=info.records_replayed,
            winners=info.winners,
            tables=info.tables,
        )
        return database, info


class _Snapshot:
    """One cached cut: the reconstructed database plus its own executor
    (own plan cache — cache keys are naturally per cut) and session."""

    def __init__(self, cut_lsn: int, database: Database, executor, info: ReconstructInfo):
        self.cut_lsn = cut_lsn
        self.database = database
        self.executor = executor
        self.info = info


class TimeTravelManager:
    """The server's time-travel surface: clock + index + snapshot cache.

    One manager spans every database incarnation of a server (like the
    stats objects): the clock stays monotonic across restarts and the
    index is rebuilt from storage at each boot via :meth:`rebuild`.
    """

    def __init__(
        self,
        storage: StableStorage,
        *,
        stats: TimeTravelStats | None = None,
        engine_metrics=None,
    ):
        self.storage = storage
        self.clock = CommitClock()
        self.log_index = LogIndex()
        self.stats = stats if stats is not None else TimeTravelStats()
        if engine_metrics is None:
            from repro.engine.plancache import EngineMetrics

            engine_metrics = EngineMetrics()
        self.engine_metrics = engine_metrics
        self._snapshots: OrderedDict[int, _Snapshot] = OrderedDict()
        self._lock = threading.RLock()

    # -- wiring ---------------------------------------------------------------

    def attach(self, database: Database) -> None:
        """Wire this manager into a (new) database incarnation: the WAL
        stamps commits with our clock and publishes them to our index."""
        database.time_travel = self
        database.wal.clock = self.clock
        database.wal.log_index = self.log_index

    def rebuild(self, live_commits) -> None:
        """Boot-time reset: reload the index from the archive's commit rows
        plus ``live_commits`` (``RecoveryReport.live_commits`` — the live
        log was decoded once, by recovery), advance the clock past every
        recovered stamp, drop cached snapshots."""
        with self._lock:
            self.log_index.load(chain(self.storage.archive_rows(), live_commits))
            latest = self.log_index.latest()
            if latest is not None:
                self.clock.advance_past(latest[2])
            while self._snapshots:
                self._evict_oldest()

    # -- resolution -----------------------------------------------------------

    def resolve_cut(self, ts: float) -> int:
        """The cut LSN ``AS OF ts`` means: the last commit at or before
        ``ts``, or 0 (the empty database) when ``ts`` predates them all."""
        entry = self.log_index.floor(ts)
        return entry[0] if entry is not None else 0

    def cut_end(self, cut_lsn: int) -> int:
        """The end offset of the cut's commit frame — where restore_to
        truncates the log.  Cut 0 (before the first commit) maps to the
        start of history."""
        if cut_lsn == 0:
            return 0
        end = self.log_index.end_for(cut_lsn)
        if end is None:
            raise TimeTravelError(f"no commit at cut LSN {cut_lsn}")
        return end

    # -- snapshots ------------------------------------------------------------

    def snapshot_at(self, ts: float) -> _Snapshot:
        """The cached (or freshly reconstructed) snapshot for ``ts``'s cut."""
        return self.snapshot_at_cut(self.resolve_cut(ts))

    def _evict_oldest(self) -> None:
        """Let a snapshot go — plans first: they and the snapshot's executor
        hold each other, and with them the reconstructed database."""
        _cut, snapshot = self._snapshots.popitem(last=False)
        snapshot.executor.clear_caches()

    def snapshot_at_cut(self, cut_lsn: int) -> _Snapshot:
        with self._lock:
            snapshot = self._snapshots.get(cut_lsn)
            if snapshot is not None:
                self._snapshots.move_to_end(cut_lsn)
                self.stats.snapshot_hits += 1
                return snapshot
            database, info = reconstruct_at(self.storage, cut_lsn)
            from repro.engine.executor import Executor
            from repro.engine.session import Session

            session = Session(user="timetravel")
            executor = Executor(database, session, metrics=self.engine_metrics)
            #: tells Executor.execute_select it already *is* the snapshot —
            #: a select's AS OF clause is resolved, not recursed on
            executor.as_of_cut = cut_lsn
            snapshot = _Snapshot(cut_lsn, database, executor, info)
            self._snapshots[cut_lsn] = snapshot
            while len(self._snapshots) > MAX_SNAPSHOTS:
                self._evict_oldest()
            self.stats.reconstructions += 1
            self.stats.records_replayed += info.records_replayed
            return snapshot
