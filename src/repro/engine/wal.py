"""Write-ahead log: record types, framing, and the log manager.

Record framing on stable storage::

    [u32 length][u32 crc32][pickled LogRecord payload]

The CRC lets recovery detect a torn tail write and stop cleanly there (the
classic "read until the first bad frame" scan).

The :class:`WriteAheadLog` buffers records in volatile memory and only moves
them to stable storage on :meth:`force` — so a crash loses exactly the
un-forced tail, which is the behaviour commit-time forcing exists to bound.

**Group commit** (classic commit coalescing): between :meth:`begin_deferred`
and :meth:`group_force`, commit-time :meth:`force` calls buffer instead of
touching the device, and the single group force at the end covers them all
with one device write.  The wire batching layer uses this to turn N
per-statement forces into one force per batch — the caller's obligation is
the usual one, just at batch granularity: release no reply before the group
force that covers it lands.  A crash inside the window loses *every*
deferred commit (nothing was durable), which is exactly what makes the
deferral safe.

Correctness notes (see DESIGN.md §5):

* **Logical records.** Each data record carries table name, row id, and
  before/after images; redo and undo are deterministic by row id.
* **CLRs as atomic batches.** Instead of per-record compensation with
  undoNextLSN chaining, an abort (at runtime or during restart undo) applies
  the undo in memory and then appends all CLRs plus the ABORT record as one
  atomic log append.  A crash before the batch lands leaves the transaction
  a loser (undone again from scratch — idempotent because redo rebuilds the
  pre-undo state first); after it lands the transaction is cleanly aborted.
"""

from __future__ import annotations

import enum
import pickle
import struct
import time
import zlib
from dataclasses import dataclass, field

from repro.engine.schema import TableSchema
from repro.engine.storage import StableStorage
from repro.obs.metrics import CounterSet
from repro.obs.tracer import get_tracer

__all__ = [
    "RecordType",
    "LogRecord",
    "WalStats",
    "CommitClock",
    "WriteAheadLog",
    "encode_record",
    "decode_log",
    "scan_log",
]

_FRAME_HEADER = struct.Struct("<II")  # length, crc32


class RecordType(enum.Enum):
    BEGIN = "begin"
    COMMIT = "commit"
    ABORT = "abort"
    INSERT = "insert"
    DELETE = "delete"
    UPDATE = "update"
    CREATE_TABLE = "create_table"
    DROP_TABLE = "drop_table"
    CREATE_PROC = "create_proc"
    DROP_PROC = "drop_proc"
    CREATE_VIEW = "create_view"
    DROP_VIEW = "drop_view"
    CREATE_INDEX = "create_index"
    DROP_INDEX = "drop_index"
    CHECKPOINT = "checkpoint"


@dataclass
class LogRecord:
    """One log record.  Field usage by type:

    * INSERT: table, rowid, after
    * DELETE: table, rowid, before
    * UPDATE: table, rowid, before, after
    * CREATE_TABLE: schema
    * DROP_TABLE: schema, dropped_rows (for undo)
    * CREATE_PROC / DROP_PROC: proc_name, proc_sql
    * CREATE_VIEW / DROP_VIEW: proc_name, proc_sql (same fields, view text)
    * CHECKPOINT: active_txns (ids of transactions in flight)
    * is_clr marks a compensation record (never undone itself)
    """

    type: RecordType
    txn_id: int = 0
    table: str | None = None
    rowid: int | None = None
    before: tuple | None = None
    after: tuple | None = None
    schema: TableSchema | None = None
    dropped_rows: dict[int, tuple] | None = None
    next_rowid: int | None = None
    proc_name: str | None = None
    proc_sql: str | None = None
    active_txns: tuple[int, ...] = ()
    is_clr: bool = False
    #: per-transaction sequence number of this record (data records only);
    #: lets a CLR name exactly which record it compensates
    rec_id: int = 0
    #: for CLRs: the rec_id of the record this compensates.  Restart undo
    #: skips compensated records — that is what makes statement-level
    #: rollback (partial undo inside a live transaction) crash-safe.
    compensates: int | None = None
    #: COMMIT records only: the wall-clock instant the commit became
    #: durable, stamped at *device-force* time so every commit covered by
    #: one group force shares one instant (a batch is all-or-none under
    #: ``AS OF``).  The time-travel LogIndex maps these to cut LSNs.
    commit_ts: float | None = None
    lsn: int = field(default=-1, compare=False)  # assigned when appended


def encode_record(record: LogRecord) -> bytes:
    """Frame one record for the log."""
    payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_log(raw: bytes, base_offset: int = 0) -> tuple[list[LogRecord], int]:
    """Decode every intact frame; stop at a torn/corrupt tail.

    Returns ``(records, good_end)`` where ``good_end`` is the absolute
    offset just past the last intact frame — equal to
    ``base_offset + len(raw)`` when the log is clean, smaller when a torn
    tail write left garbage bytes that restart recovery must truncate
    (appending after them would make every later record unreachable to
    this scan).  ``base_offset`` is the absolute LSN of ``raw[0]`` (log
    truncation keeps LSNs absolute)."""
    records: list[LogRecord] = []
    pos = 0
    total = len(raw)
    while pos + _FRAME_HEADER.size <= total:
        length, crc = _FRAME_HEADER.unpack_from(raw, pos)
        start = pos + _FRAME_HEADER.size
        end = start + length
        if end > total:
            break  # torn tail
        payload = raw[start:end]
        if zlib.crc32(payload) != crc:
            break  # corrupt tail
        record: LogRecord = pickle.loads(payload)
        record.lsn = base_offset + pos
        records.append(record)
        pos = end
    return records, base_offset + pos


def decode_log(raw: bytes, base_offset: int = 0) -> list[LogRecord]:
    """Decode every intact frame; stop silently at a torn/corrupt tail."""
    return scan_log(raw, base_offset)[0]


class WalStats(CounterSet):
    """WAL activity counters, separable from the log object itself.

    A crash throws the :class:`WriteAheadLog` away with the rest of the
    volatile engine; the server threads one ``WalStats`` (the ``wal`` slot
    of its registry) through every database incarnation so
    ``MetricsRegistry.snapshot()`` can report forces across restarts.
    """

    records_written: int = 0
    #: device forces actually performed
    forces: int = 0
    #: group forces performed (each counts once in ``forces`` too)
    group_forces: int = 0
    #: commit-time forces absorbed by a group force instead of hitting the
    #: device: ``deferred - 1`` per non-empty group (the batch savings)
    forces_coalesced: int = 0


class CommitClock:
    """Strictly monotonic commit-timestamp source.

    ``now()`` never returns the same value twice and never goes backwards,
    even if the wall clock does — each commit timestamp is a unique,
    ordered cut point for ``AS OF``.  :meth:`advance_past` lets a restart
    re-seed the clock past every timestamp already in the log, so commits
    of a new incarnation always stamp after recovered history.
    """

    def __init__(self):
        self._last = 0.0

    def now(self) -> float:
        value = time.time()
        if value <= self._last:
            value = self._last + 1e-6
        self._last = value
        return value

    def advance_past(self, ts: float) -> None:
        if ts > self._last:
            self._last = ts


class WriteAheadLog:
    """Volatile log buffer in front of stable storage.

    The engine appends records freely; only :meth:`force` (called at commit,
    checkpoint, and abort-batch time) moves them to stable storage — unless
    a deferred-force window is open (see :meth:`begin_deferred`).
    """

    def __init__(self, storage: StableStorage, *, stats: WalStats | None = None):
        self._storage = storage
        self._pending: list[bytes] = []
        self._pending_bytes = 0
        #: stats for benchmarks and the metrics registry; injectable so the
        #: counters survive this (volatile) object across restarts
        self.stats = stats if stats is not None else WalStats()
        self._defer_forces = False
        self._deferred_forces = 0
        #: commit-timestamp source; ``TimeTravelManager.attach`` installs the
        #: server's, so one clock spans every database incarnation
        #: (timestamps must stay monotonic across restarts even when the
        #: wall clock regresses)
        self.clock = CommitClock()
        #: (buffer index, record) of each buffered COMMIT, so the flush can
        #: re-stamp them all with the force instant (see _flush_commits)
        self._pending_commits: list[tuple[int, LogRecord]] = []
        #: time-travel hook: any object with ``note_commit(lsn, end, ts)``;
        #: called after each successful device force, once per commit record
        #: it covered
        self.log_index = None

    # counter views (back-compat with direct ``wal.forces`` readers)

    @property
    def records_written(self) -> int:
        return self.stats.records_written

    @property
    def forces(self) -> int:
        return self.stats.forces

    def _next_lsn(self) -> int:
        """LSN the next appended record will land at.

        Appends are strictly sequential and a force writes the whole buffer,
        so `durable size + buffered bytes` predicts the offset exactly; this
        lets us stamp the LSN *into* the record before encoding it, which
        table snapshots use for idempotent redo (``TableData.last_lsn``).
        """
        return self._storage.log_size() + self._pending_bytes

    def append(self, record: LogRecord) -> int:
        """Buffer one record (volatile until the next force); returns its LSN."""
        record.lsn = self._next_lsn()
        if record.type is RecordType.COMMIT:
            # provisional stamp: a float *now* so the frame length is final
            # (pickled floats are fixed-size); the flush re-stamps it with
            # the shared force instant without moving any LSN
            record.commit_ts = self.clock.now()
        frame = encode_record(record)
        self._pending.append(frame)
        if record.type is RecordType.COMMIT:
            self._pending_commits.append((len(self._pending) - 1, record))
        self._pending_bytes += len(frame)
        self.stats.records_written += 1
        return record.lsn

    def _flush_commits(self) -> list[tuple[int, int, float]]:
        """Re-stamp every buffered COMMIT with one shared force instant.

        Returns ``(lsn, end_offset, ts)`` per commit for the log-index
        publish that follows a successful device append.  Re-encoding with
        a new float timestamp cannot change the frame length (floats pickle
        fixed-size); if it somehow did, the provisional stamp is kept —
        LSN-as-byte-offset arithmetic must never shift.
        """
        if not self._pending_commits:
            return []
        ts = self.clock.now()
        published: list[tuple[int, int, float]] = []
        for index, record in self._pending_commits:
            old_frame = self._pending[index]
            provisional = record.commit_ts
            record.commit_ts = ts
            frame = encode_record(record)
            if len(frame) == len(old_frame):
                self._pending[index] = frame
            else:  # pragma: no cover - float stamps are fixed-size
                record.commit_ts = provisional
                frame = old_frame
            published.append((record.lsn, record.lsn + len(frame), record.commit_ts))
        self._pending_commits.clear()
        return published

    def _publish_commits(self, published: list[tuple[int, int, float]]) -> None:
        if self.log_index is None:
            return
        for lsn, end, ts in published:
            self.log_index.note_commit(lsn, end, ts)

    def force(self) -> int:
        """Durably flush buffered records; returns the log size (next LSN).

        Inside a deferred-force window the call is absorbed: the records
        stay buffered (volatile!) and the closing :meth:`group_force` is
        what makes them durable — callers must not release any commit
        acknowledgement before that group force lands.
        """
        if self._defer_forces:
            self._deferred_forces += 1
            return self._next_lsn()
        if self._pending:
            flushed = len(self._pending)
            published = self._flush_commits()
            payload = b"".join(self._pending)
            self._pending.clear()
            self._pending_bytes = 0
            self._storage.append_log(payload)
            self._publish_commits(published)
            get_tracer().event("wal.force", records=flushed, bytes=len(payload))
        self.stats.forces += 1
        return self._storage.log_size()

    # -- group commit ---------------------------------------------------------

    def begin_deferred(self) -> None:
        """Open a deferred-force window (group-commit mode).

        Until :meth:`group_force`, every :meth:`force` buffers instead of
        writing; :meth:`append_forced` (abort CLR batches, checkpoints)
        stays immediate — its atomicity contract is per-call, and flushing
        earlier deferred commits with it is harmless early durability.
        """
        self._defer_forces = True
        self._deferred_forces = 0

    def end_deferred(self) -> int:
        """Close the window *without* forcing; returns the absorbed count.

        Deferred commits stay volatile — only correct when the caller is
        about to throw the whole volatile engine away (a simulated process
        kill mid-batch).
        """
        absorbed = self._deferred_forces
        self._defer_forces = False
        self._deferred_forces = 0
        return absorbed

    def group_force(self) -> int:
        """Close the deferred window with one device force covering every
        force absorbed inside it; returns the durable log size."""
        deferred = self.end_deferred()
        if deferred == 0:
            return self._storage.log_size()
        size = self.force()
        self.stats.group_forces += 1
        self.stats.forces_coalesced += deferred - 1
        get_tracer().event("wal.group_force", coalesced=deferred)
        return size

    def append_forced(self, records: list[LogRecord]) -> list[int]:
        """Append ``records`` and force, as one atomic storage append.

        Used for CLR batches and checkpoint records (see module docstring).
        Returns the LSNs assigned to ``records``.
        """
        lsns: list[int] = []
        frames: list[bytes] = []
        for record in records:
            record.lsn = self._next_lsn()
            frame = encode_record(record)
            frames.append(frame)
            self._pending_bytes += len(frame)
            lsns.append(record.lsn)
        published = self._flush_commits()
        payload = b"".join(self._pending) + b"".join(frames)
        self._pending.clear()
        self._pending_bytes = 0
        self.stats.records_written += len(records)
        self.stats.forces += 1
        if payload:
            self._storage.append_log(payload)
            self._publish_commits(published)
            get_tracer().event(
                "wal.force", records=len(records), bytes=len(payload), atomic_batch=True
            )
        return lsns

    def pending_count(self) -> int:
        return len(self._pending)

    def read_all(self) -> list[LogRecord]:
        """Decode the durable portion of the log (what recovery will see)."""
        return decode_log(self._storage.read_log(), base_offset=self._storage.log_base)
