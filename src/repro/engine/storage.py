"""Stable storage — the durability boundary of the engine.

Everything the engine keeps in ordinary Python objects is *volatile*: a
:meth:`~repro.engine.server.DatabaseServer.crash` throws it away.  The only
state that survives is what was explicitly written through a
:class:`StableStorage` implementation:

* **table files** — snapshots of table contents, written at checkpoints;
* **the log** — append-only WAL bytes, forced at commit;
* **meta entries** — small key/value items (last checkpoint LSN, catalog
  snapshots) — never history, so their size does not grow with uptime;
* **the archive** — the log prefixes checkpoints truncated, kept for time
  travel on an append-only device of its own (see :meth:`StableStorage.
  append_archive` for the chunk layout and the one rule that makes every
  archive step repeatable).  Restart never reads its log bytes: a boot
  loads only the fixed-width commit rows stored beside them.

Two implementations are provided.  :class:`InMemoryStableStorage` keeps
"disk" contents in dictionaries but snapshots every table payload on the
way in and out (copy-on-write over immutable row tuples — see
:meth:`TableData.snapshot`), so no volatile structure can alias it — this
is what tests and benchmarks use, because crashes are then instantaneous.
:class:`FileStableStorage` puts the same contents in real files for
end-to-end durability demonstrations.
"""

from __future__ import annotations

import copy
import os
import pickle
import struct
import tempfile
import urllib.parse
import zlib
from dataclasses import dataclass, field

from repro.engine.schema import TableSchema

__all__ = [
    "TableData",
    "StorageFault",
    "StableStorage",
    "InMemoryStableStorage",
    "FileStableStorage",
]


class StorageFault(Exception):
    """A stable-storage device failure (torn write, failed force).

    Deliberately *not* a :class:`repro.errors.Error` subclass: a device
    fault must never travel in-band as an SQL ErrorResponse — it kills the
    server process (the endpoint turns it into a crash + communication
    error, exactly like a kernel panic on fsync would).
    """


#: one archived commit: (commit LSN, end offset of its frame, commit timestamp)
_COMMIT_ROW = struct.Struct("<QQd")
#: archive chunk header: crc32 of the three fields, start LSN, end LSN, row count
_ARCHIVE_HEADER = struct.Struct("<IQQI")
#: ``wal.log`` header: magic, absolute LSN of the first log byte after it
_LOG_HEADER = struct.Struct("<4sQ")
_LOG_MAGIC = b"WAL1"


def _archive_crc(start: int, end: int, n_rows: int) -> int:
    return zlib.crc32(struct.pack("<QQI", start, end, n_rows))


@dataclass
class _ArchiveChunk:
    """One live chunk of the archive: log bytes ``[start, end)`` and the
    rows of the commits inside them.  ``at`` is the device offset of the
    rows; the log bytes follow them.  ``end`` shrinks when a later chunk
    supersedes this one's tail."""

    start: int
    end: int
    n_rows: int
    at: int


@dataclass
class TableData:
    """The picklable on-disk image of one table.

    ``rows`` maps an engine-assigned row id to the row tuple.  Row ids are
    stable for the life of a row and never reused (``next_rowid`` only
    grows), which is what makes logical WAL records unambiguous.
    """

    schema: TableSchema
    rows: dict[int, tuple] = field(default_factory=dict)
    next_rowid: int = 1
    #: LSN of the last log record whose effect is reflected here; restart
    #: redo skips records at or below it, making redo idempotent even when a
    #: crash interleaves snapshot writes with the checkpoint-pointer update.
    last_lsn: int = 0

    def snapshot(self) -> "TableData":
        """Isolated copy-on-write copy of this table image.

        The rows dict is copied, but the row *tuples* (and the frozen
        schema) are shared: rows are immutable tuples of immutable scalars,
        so sharing them cannot let volatile state alias "disk" state.  The
        engine always replaces whole rows (``rows[rowid] = new_tuple``) and
        never mutates one in place, which makes this as isolating as a
        ``copy.deepcopy`` at a fraction of the cost.
        """
        return TableData(
            schema=self.schema,
            rows=dict(self.rows),
            next_rowid=self.next_rowid,
            last_lsn=self.last_lsn,
        )


class StableStorage:
    """Interface every stable-storage backend implements."""

    #: armed device fault for the next log append: None | "torn" | "fail"
    _append_fault: str | None = None
    _append_fault_torn_bytes: int = 7

    # -- fault injection ----------------------------------------------------

    def inject_append_fault(self, mode: str, *, torn_bytes: int = 7) -> None:
        """Arm a device fault for the next :meth:`append_log`.

        ``mode="torn"`` writes all but the last ``torn_bytes`` bytes of the
        payload and then raises :class:`StorageFault` — the partial frame
        stays on disk, exercising recovery's "read until the first bad
        frame" scan.  ``mode="fail"`` raises without writing anything (a
        failed force).  Either way the caller is expected to treat the
        exception as fatal (the server crashes).
        """
        if mode not in ("torn", "fail"):
            raise ValueError(f"unknown append fault mode {mode!r}")
        self._append_fault = mode
        self._append_fault_torn_bytes = max(1, torn_bytes)

    def clear_append_fault(self) -> None:
        """Disarm any pending device fault (a dead server has none)."""
        self._append_fault = None

    def append_log(self, payload: bytes) -> int:
        """Durably append ``payload`` and return its start offset (LSN).

        The append is atomic: a crash either leaves the log without the
        payload or with all of it (see wal.py for why recovery leans on
        this).  An armed device fault (:meth:`inject_append_fault`) breaks
        exactly that promise — once, deliberately — and raises
        :class:`StorageFault`.
        """
        fault, self._append_fault = self._append_fault, None
        if fault == "fail":
            raise StorageFault("log append failed (device error, nothing written)")
        if fault == "torn":
            torn = payload[: max(0, len(payload) - self._append_fault_torn_bytes)]
            if torn:
                self._append_log_raw(torn)
            raise StorageFault(
                f"torn log append ({len(torn)}/{len(payload)} bytes reached the device)"
            )
        return self._append_log_raw(payload)

    def _append_log_raw(self, payload: bytes) -> int:
        """Backend-specific append (no fault checking)."""
        raise NotImplementedError

    # -- table files --------------------------------------------------------

    def write_table_file(self, name: str, data: TableData) -> None:
        raise NotImplementedError

    def read_table_file(self, name: str) -> TableData:
        raise NotImplementedError

    def delete_table_file(self, name: str) -> None:
        raise NotImplementedError

    def list_table_files(self) -> list[str]:
        raise NotImplementedError

    # -- the log ------------------------------------------------------------

    def read_log(self) -> bytes:
        raise NotImplementedError

    def log_size(self) -> int:
        raise NotImplementedError

    @property
    def log_base(self) -> int:
        """Absolute LSN of the first retained log byte."""
        raise NotImplementedError

    def truncate_log_prefix(self, offset: int) -> None:
        """Discard log bytes before ``offset`` (log head after a quiescent
        checkpoint).  Offsets/LSNs remain absolute."""
        raise NotImplementedError

    def truncate_log_suffix(self, offset: int) -> None:
        """Discard log bytes at and after absolute ``offset`` (a torn tail
        found by restart recovery).  Later appends land at ``offset``."""
        raise NotImplementedError

    # -- meta ----------------------------------------------------------------

    def write_meta(self, key: str, value: object) -> None:
        raise NotImplementedError

    def read_meta(self, key: str, default: object = None) -> object:
        raise NotImplementedError

    # -- the time-travel archive -------------------------------------------------

    #: live chunks, ascending and non-overlapping (each backend's
    #: ``__init__`` creates the list)
    _archive_chunks: list[_ArchiveChunk]

    def append_archive(
        self, start: int, end: int, rows: list[tuple[int, int, float]], payload: bytes
    ) -> None:
        """Durably archive log bytes ``[start, end)`` with the ``(lsn, end,
        ts)`` row of every commit inside them, as one chunk::

            [u32 crc][u64 start][u64 end][u32 n_rows]  n_rows x [u64 u64 f64]  bytes

        **A chunk replaces whatever the archive held at or above its start
        LSN.**  That one rule makes every archive step repeatable: a
        checkpoint that crashed after archiving and before truncating
        archives the same prefix again without duplicating it, and
        ``restore_to`` erases post-cut history by appending an empty chunk
        at the cut (:meth:`truncate_archive`).  Nothing is ever rewritten in
        place; a chunk the device tore is ignored when the archive is opened.
        """
        fields = (start, end, len(rows))
        chunk = b"".join(
            [
                _ARCHIVE_HEADER.pack(_archive_crc(*fields), *fields),
                *(_COMMIT_ROW.pack(*row) for row in rows),
                payload,
            ]
        )
        at = self._write_archive(chunk)
        self._note_chunk(start, end, len(rows), at + _ARCHIVE_HEADER.size)

    def truncate_archive(self, offset: int) -> None:
        """Discard archived history at and after absolute ``offset``."""
        chunks = self._archive_chunks
        if chunks and chunks[-1].end > offset:
            self.append_archive(offset, offset, [], b"")

    def _note_chunk(self, start: int, end: int, n_rows: int, at: int) -> None:
        chunks = self._archive_chunks
        while chunks and chunks[-1].start >= start:
            chunks.pop()
        if chunks and chunks[-1].end > start:
            chunks[-1].end = start
        if end > start:
            chunks.append(_ArchiveChunk(start, end, n_rows, at))

    def _chunks_below_log_base(self):
        """``(chunk, stop)`` per live chunk, ``stop`` its end clipped to the
        log base: the live log is authoritative, so whatever the archive
        holds at or above ``log_base`` (a checkpoint died between archiving
        and truncating) is ignored."""
        base = self.log_base
        for chunk in self._archive_chunks:
            if chunk.start < base:
                yield chunk, min(chunk.end, base)

    def archive_rows(self) -> list[tuple[int, int, float]]:
        """``(lsn, end, ts)`` of every archived commit below the log base,
        in LSN order — fixed-width rows, no log record is decoded."""
        rows: list[tuple[int, int, float]] = []
        for chunk, stop in self._chunks_below_log_base():
            raw = self._read_archive(chunk.at, chunk.n_rows * _COMMIT_ROW.size)
            rows.extend(row for row in _COMMIT_ROW.iter_unpack(raw) if row[1] <= stop)
        return rows

    def archive_segments(self) -> list[tuple[int, int, bytes]]:
        """``(start, end, log bytes)`` of the archived history below the log
        base, ascending.  This is the read that costs what history weighs:
        only point-in-time reconstruction calls it."""
        return [
            (
                chunk.start,
                stop,
                self._read_archive(
                    chunk.at + chunk.n_rows * _COMMIT_ROW.size, stop - chunk.start
                ),
            )
            for chunk, stop in self._chunks_below_log_base()
        ]

    def _write_archive(self, chunk: bytes) -> int:
        """Durably append to the archive device; returns where it landed."""
        raise NotImplementedError

    def _read_archive(self, offset: int, length: int) -> bytes:
        raise NotImplementedError


class InMemoryStableStorage(StableStorage):
    """Stable storage held in process memory.

    Copy-on-write snapshots (:meth:`TableData.snapshot`) enforce the
    durability boundary: the engine can never keep a live reference into
    "disk" *structure*, so ``crash()`` genuinely loses every unflushed
    change.  Row tuples are shared — safely, because they are immutable —
    which keeps checkpoints O(rows) pointer copies instead of a deep copy
    of every value.
    """

    def __init__(self):
        self._tables: dict[str, TableData] = {}
        self._log = bytearray()
        self._log_base = 0  # absolute offset of _log[0] after truncation
        self._meta: dict[str, object] = {}
        self._archive = bytearray()
        self._archive_chunks = []
        #: counters exposed to benchmarks (forced writes etc.)
        self.log_appends = 0
        self.table_writes = 0

    def write_table_file(self, name: str, data: TableData) -> None:
        self._tables[name] = data.snapshot()
        self.table_writes += 1

    def read_table_file(self, name: str) -> TableData:
        return self._tables[name].snapshot()

    def delete_table_file(self, name: str) -> None:
        self._tables.pop(name, None)

    def list_table_files(self) -> list[str]:
        return sorted(self._tables)

    def _append_log_raw(self, payload: bytes) -> int:
        offset = self._log_base + len(self._log)
        self._log.extend(payload)
        self.log_appends += 1
        return offset

    def read_log(self) -> bytes:
        return bytes(self._log)

    @property
    def log_base(self) -> int:
        """Absolute LSN of the first retained log byte."""
        return self._log_base

    def log_size(self) -> int:
        return self._log_base + len(self._log)

    def truncate_log_prefix(self, offset: int) -> None:
        keep_from = offset - self._log_base
        if keep_from <= 0:
            return
        del self._log[:keep_from]
        self._log_base = offset

    def truncate_log_suffix(self, offset: int) -> None:
        keep_to = offset - self._log_base
        if keep_to >= len(self._log):
            return
        del self._log[max(0, keep_to):]

    def write_meta(self, key: str, value: object) -> None:
        self._meta[key] = copy.deepcopy(value)

    def read_meta(self, key: str, default: object = None) -> object:
        return copy.deepcopy(self._meta.get(key, default))

    def _write_archive(self, chunk: bytes) -> int:
        at = len(self._archive)
        self._archive.extend(chunk)
        return at

    def _read_archive(self, offset: int, length: int) -> bytes:
        return bytes(self._archive[offset : offset + length])




class FileStableStorage(StableStorage):
    """Stable storage backed by a directory of real files.

    Layout::

        <root>/tables/<name>.tbl   pickled (name, TableData); the file name
                                   is the table name, percent-escaped
        <root>/wal.log             [magic][u64 base LSN] + raw log bytes
        <root>/meta.pickle         pickled meta dict
        <root>/archive.log         archive chunks (see ``append_archive``)

    Table and meta writes go through a temp-file + ``os.replace`` so a crash
    mid-write never leaves a torn file.  So does a log prefix truncation:
    the log's base LSN travels in the header of the file that one replace
    swaps in, so no crash can leave new bytes under an old base.

    The object is its directory's only writer, so it keeps the log's base
    and length (and the archive's chunk table) instead of asking the file
    system for them on every append.
    """

    def __init__(self, root: str):
        self.root = root
        self._tables_dir = os.path.join(root, "tables")
        self._log_path = os.path.join(root, "wal.log")
        self._meta_path = os.path.join(root, "meta.pickle")
        self._archive_path = os.path.join(root, "archive.log")
        os.makedirs(self._tables_dir, exist_ok=True)
        if not os.path.exists(self._log_path):
            self._atomic_write(self._log_path, _LOG_HEADER.pack(_LOG_MAGIC, 0))
        with open(self._log_path, "rb") as handle:
            header = handle.read(_LOG_HEADER.size)
        if len(header) < _LOG_HEADER.size or not header.startswith(_LOG_MAGIC):
            raise StorageFault(f"{self._log_path} is not a log file of this layout")
        _magic, self._log_base = _LOG_HEADER.unpack(header)
        self._log_len = os.path.getsize(self._log_path) - _LOG_HEADER.size
        self._archive_chunks = []
        self._archive_size = self._open_archive()

    # -- helpers --------------------------------------------------------------

    def _table_path(self, name: str) -> str:
        # reversible, so listing the directory lists the tables
        return os.path.join(self._tables_dir, urllib.parse.quote(name, safe="") + ".tbl")

    @staticmethod
    def _atomic_write(path: str, payload: bytes) -> None:
        directory = os.path.dirname(path)
        fd, tmp_path = tempfile.mkstemp(dir=directory)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    @staticmethod
    def _durable_append(path: str, payload: bytes) -> None:
        with open(path, "ab") as handle:
            handle.write(payload)
            handle.flush()
            os.fsync(handle.fileno())

    # -- table files ------------------------------------------------------------

    def write_table_file(self, name: str, data: TableData) -> None:
        payload = pickle.dumps((name, data), protocol=pickle.HIGHEST_PROTOCOL)
        self._atomic_write(self._table_path(name), payload)

    def read_table_file(self, name: str) -> TableData:
        with open(self._table_path(name), "rb") as handle:
            stored_name, data = pickle.load(handle)
        return data

    def delete_table_file(self, name: str) -> None:
        path = self._table_path(name)
        if os.path.exists(path):
            os.unlink(path)

    def list_table_files(self) -> list[str]:
        return sorted(
            urllib.parse.unquote(entry[: -len(".tbl")])
            for entry in os.listdir(self._tables_dir)
            if entry.endswith(".tbl")
        )

    # -- log -----------------------------------------------------------------------

    @property
    def log_base(self) -> int:
        return self._log_base

    def _append_log_raw(self, payload: bytes) -> int:
        offset = self._log_base + self._log_len
        self._durable_append(self._log_path, payload)
        self._log_len += len(payload)
        return offset

    def read_log(self) -> bytes:
        with open(self._log_path, "rb") as handle:
            handle.seek(_LOG_HEADER.size)
            raw = handle.read()
        # every boot starts here: take the length from the device, in case
        # an append that raised half-way left more behind than was counted
        self._log_len = len(raw)
        return raw

    def log_size(self) -> int:
        return self._log_base + self._log_len

    def truncate_log_prefix(self, offset: int) -> None:
        keep_from = offset - self._log_base
        if keep_from <= 0:
            return
        with open(self._log_path, "rb") as handle:
            handle.seek(_LOG_HEADER.size + keep_from)
            remainder = handle.read()
        self._atomic_write(
            self._log_path, _LOG_HEADER.pack(_LOG_MAGIC, offset) + remainder
        )
        self._log_base = offset
        self._log_len = len(remainder)

    def truncate_log_suffix(self, offset: int) -> None:
        keep_to = max(0, offset - self._log_base)
        if keep_to >= self._log_len:
            return
        with open(self._log_path, "r+b") as handle:
            handle.truncate(_LOG_HEADER.size + keep_to)
            os.fsync(handle.fileno())
        self._log_len = keep_to

    # -- meta --------------------------------------------------------------------------

    def _load_meta(self) -> dict:
        if not os.path.exists(self._meta_path):
            return {}
        with open(self._meta_path, "rb") as handle:
            return pickle.load(handle)

    def write_meta(self, key: str, value: object) -> None:
        meta = self._load_meta()
        meta[key] = value
        self._atomic_write(self._meta_path, pickle.dumps(meta))

    def read_meta(self, key: str, default: object = None) -> object:
        return self._load_meta().get(key, default)

    # -- archive -------------------------------------------------------------------

    def _open_archive(self) -> int:
        """Rebuild the chunk table from the chunk headers (rows and log
        bytes are skipped, not read) and cut a torn tail; returns the
        archive's size."""
        if not os.path.exists(self._archive_path):
            return 0
        size = os.path.getsize(self._archive_path)
        pos = 0
        with open(self._archive_path, "rb") as handle:
            while pos + _ARCHIVE_HEADER.size <= size:
                handle.seek(pos)
                crc, start, end, n_rows = _ARCHIVE_HEADER.unpack(
                    handle.read(_ARCHIVE_HEADER.size)
                )
                if crc != _archive_crc(start, end, n_rows):
                    break
                rows_at = pos + _ARCHIVE_HEADER.size
                chunk_end = rows_at + n_rows * _COMMIT_ROW.size + (end - start)
                if chunk_end > size:
                    break
                self._note_chunk(start, end, n_rows, rows_at)
                pos = chunk_end
        if pos < size:
            os.truncate(self._archive_path, pos)
        return pos

    def _write_archive(self, chunk: bytes) -> int:
        at = self._archive_size
        self._durable_append(self._archive_path, chunk)
        self._archive_size += len(chunk)
        return at

    def _read_archive(self, offset: int, length: int) -> bytes:
        if not length:
            return b""
        with open(self._archive_path, "rb") as handle:
            handle.seek(offset)
            return handle.read(length)
