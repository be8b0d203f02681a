"""Time travel from the WAL: point-in-time query and restore-to-timestamp.

The WAL already records every change the database ever committed; Talius
et al. (PAPERS.md) observe that this makes the log itself a time machine —
no full backups needed.  This module is that machine, and ``wal.log`` is
its one source: nothing is ever cut from the front of the log.

* :class:`LogIndex` — maps commit timestamps to cut LSNs.  Commit records
  are stamped at *device-force* time (:meth:`WriteAheadLog._flush_commits`),
  so every commit covered by one group force shares one instant and a
  batch is all-or-none under any cut.  The index is volatile and loads on
  first use (``AS OF``, ``restore_to``) from one scan of the log; a boot
  decodes nothing below the redo start for it, and starts the commit
  clock past history from what meta and restart's scan hold.
* :func:`reconstruct_at` — replays committed history up to a cut LSN into
  a fresh, throwaway-storage :class:`Database`: the read-only snapshot
  ``SELECT ... AS OF <ts>`` queries run against.
* :class:`TimeTravelManager` — owns the clock, the index, and an LRU cache
  of reconstructed snapshots (one executor *per cut*, so plan caching is
  naturally keyed per cut).  ``DatabaseServer`` attaches one per system;
  ``DatabaseServer.restore_to(ts)`` writes a reconstructed cut to stable
  storage, cuts the log after it and boots a fresh engine from it.

**Cut semantics.**  A *cut* is the LSN of a COMMIT record; the state at a
cut is every transaction whose commit LSN is ``<= cut``, in log order —
exactly restart recovery's winner set, evaluated at a past moment.
``AS OF ts`` resolves to the last commit whose timestamp is ``<= ts``
(the empty database when there is none).  Uncommitted and aborted
transactions are invisible at every cut, a checkpoint cuts nothing from
the log so no cut is ever lost, and ``restore_to`` *discards* post-cut
history — by design, that is the application-error-recovery story.  See
docs/TIME_TRAVEL.md.
"""

from __future__ import annotations

import bisect
import threading
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import TimeTravelError
from repro.engine.database import Database
from repro.engine.recovery import RecoveryReport, _replay, attribute
from repro.engine.storage import InMemoryStableStorage, StableStorage
from repro.engine.wal import CommitClock, RecordType, scan_log
from repro.obs.metrics import CounterSet
from repro.obs.tracer import get_tracer

__all__ = [
    "LogIndex",
    "ReconstructInfo",
    "TimeTravelManager",
    "TimeTravelStats",
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
    """Commit timestamp → cut LSN, over the whole log.

    Entries arrive in LSN order with non-decreasing timestamps (the
    :class:`CommitClock` guarantees it), so both columns are sorted and
    ``floor`` is a bisect; the commits of one group force share a stamp,
    and ``floor`` takes the last of them.  Volatile, and empty until :meth:`load` reads the
    log; afterwards :meth:`note_commit` keeps it live (called by the WAL
    after each successful device force).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._lsns: list[int] = []
        self._ends: list[int] = []
        self._tss: list[float] = []
        #: whether :meth:`load` has read the log since the last :meth:`clear`
        self.loaded = False

    def __len__(self) -> int:
        return len(self._lsns)

    def note_commit(self, lsn: int, end: int, ts: float) -> None:
        with self._lock:
            if not self.loaded:
                return  # the load's scan will meet this commit
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

    def load(self, storage: StableStorage) -> None:
        """Fill the index from one scan of the whole log, unless it is
        loaded already."""
        with self._lock:
            if self.loaded:
                return
            records, good_end = scan_log(storage.read_log())
            for i, record in enumerate(records):
                if record.type is RecordType.COMMIT:
                    self._lsns.append(record.lsn)
                    self._ends.append(
                        records[i + 1].lsn if i + 1 < len(records) else good_end
                    )
                    self._tss.append(record.commit_ts)
            self.loaded = True

    def clear(self) -> None:
        """Forget every entry (a boot: the next reader loads the log)."""
        with self._lock:
            self._lsns.clear()
            self._ends.clear()
            self._tss.clear()
            self.loaded = False


@dataclass
class ReconstructInfo:
    """What one reconstruction did (the ``timetravel.reconstruct`` span
    carries the same numbers)."""

    cut_lsn: int
    records_scanned: int = 0
    records_replayed: int = 0
    tables: int = 0
    winners: int = 0
    #: transactions with records at or below the cut and no COMMIT or
    #: ABORT there — restore_to closes them, since it cuts their ends away
    open_txns: list[int] = field(default_factory=list)


def reconstruct_at(
    storage: StableStorage, cut_lsn: int, cut_end: int
) -> tuple[Database, ReconstructInfo]:
    """Replay committed history up to ``cut_lsn`` — the log bytes below
    ``cut_end``, the end of its COMMIT frame — into a fresh Database.

    The returned database lives on a *throwaway* in-memory storage: replay
    side effects (dropped-table file deletes) must never touch the real
    device, and nothing the snapshot does is durable.  Reconstruction
    reuses restart recovery's ``attribute`` and ``_replay``: the snapshot
    is exactly what a crash recovery at that moment would have produced.
    """
    with get_tracer().span("timetravel.reconstruct", cut=cut_lsn) as span:
        records, good_end = scan_log(storage.read_log()[:cut_end])
        if good_end < cut_end:
            raise TimeTravelError(
                f"the log ends at LSN {good_end}, before the commit at cut "
                f"LSN {cut_lsn} that ends at {cut_end}: history is missing"
            )
        commit_of, open_txns = attribute(records)
        info = ReconstructInfo(
            cut_lsn=cut_lsn,
            records_scanned=len(records),
            winners=sum(record.type is RecordType.COMMIT for record in records),
            open_txns=open_txns,
        )
        database = Database(InMemoryStableStorage(), tables={}, procedures={}, views={})
        report = RecoveryReport()
        snapshot_lsn: dict[str, int] = {}
        for record, commit_lsn in zip(records, commit_of):
            if commit_lsn is not None:
                _replay(record, commit_lsn, database, snapshot_lsn, 0, report)
        database.attach_indexes()
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
    stats objects): the clock stays monotonic across restarts, and each
    boot empties the index via :meth:`reset`.
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

    def reset(self, last_commit_ts: float) -> None:
        """Boot-time reset: start the clock past ``last_commit_ts`` (the
        latest stamp in history, ``RecoveryReport.last_commit_ts``), and
        drop the index and the cached snapshots — the next reader loads the
        index from the log."""
        with self._lock:
            self.clock.advance_past(last_commit_ts)
            self.log_index.clear()
            self._snapshots.clear()

    def index(self) -> LogIndex:
        """The commit index, loaded from the log on first use."""
        self.log_index.load(self.storage)
        return self.log_index

    # -- resolution -----------------------------------------------------------

    def resolve_cut(self, ts: float) -> int:
        """The cut LSN ``AS OF ts`` means: the last commit at or before
        ``ts``, or 0 (the empty database) when ``ts`` predates them all."""
        entry = self.index().floor(ts)
        return entry[0] if entry is not None else 0

    def cut_end(self, cut_lsn: int) -> int:
        """The end offset of the cut's commit frame — where restore_to
        truncates the log.  Cut 0 (before the first commit) maps to the
        start of history."""
        if cut_lsn == 0:
            return 0
        end = self.index().end_for(cut_lsn)
        if end is None:
            raise TimeTravelError(f"no commit at cut LSN {cut_lsn}")
        return end

    # -- snapshots ------------------------------------------------------------

    def snapshot_at(self, ts: float) -> _Snapshot:
        """The cached (or freshly reconstructed) snapshot for ``ts``'s cut."""
        return self.snapshot_at_cut(self.resolve_cut(ts))

    def snapshot_at_cut(self, cut_lsn: int) -> _Snapshot:
        with self._lock:
            snapshot = self._snapshots.get(cut_lsn)
            if snapshot is not None:
                self._snapshots.move_to_end(cut_lsn)
                self.stats.snapshot_hits += 1
                return snapshot
            database, info = reconstruct_at(self.storage, cut_lsn, self.cut_end(cut_lsn))
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
                # the oldest goes, and with its reconstructed database the
                # plans compiled against it
                self._snapshots.popitem(last=False)
            self.stats.reconstructions += 1
            self.stats.records_replayed += info.records_replayed
            return snapshot
