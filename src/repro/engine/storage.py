"""Stable storage — the durability boundary of the engine.

Everything the engine keeps in ordinary Python objects is *volatile*: a
:meth:`~repro.engine.server.DatabaseServer.crash` throws it away.  The only
state that survives is what was explicitly written through a
:class:`StableStorage` implementation:

* **table files** — snapshots of table contents, written at checkpoints;
* **the log** — append-only WAL bytes, forced at commit.  It is the whole
  committed history: nothing is cut from its front, so time travel reads
  the same bytes restart does.  Restart reads it from the *redo start* a
  checkpoint notes in meta; the log is cut only at a torn tail and by
  ``restore_to`` (:meth:`StableStorage.truncate_log_suffix`);
* **meta entries** — small key/value items (the redo start, catalog
  snapshots) — never history, so their size does not grow with uptime.

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
import tempfile
import urllib.parse
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


#: the first bytes of ``wal.log``; an LSN is a byte offset after them
_LOG_MAGIC = b"WAL3"


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

    def read_log(self, start: int = 0) -> bytes:
        """The durable log bytes from LSN ``start`` on."""
        raise NotImplementedError

    def log_size(self) -> int:
        raise NotImplementedError

    def truncate_log_suffix(self, offset: int) -> None:
        """Discard log bytes at and after ``offset`` (a torn tail found by
        restart recovery, or the history ``restore_to`` erases).  Later
        appends land at ``offset``."""
        raise NotImplementedError

    # -- meta ----------------------------------------------------------------

    def write_meta(self, key: str, value: object) -> None:
        raise NotImplementedError

    def read_meta(self, key: str, default: object = None) -> object:
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
        self._meta: dict[str, object] = {}
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
        offset = len(self._log)
        self._log.extend(payload)
        self.log_appends += 1
        return offset

    def read_log(self, start: int = 0) -> bytes:
        return bytes(self._log[start:])

    def log_size(self) -> int:
        return len(self._log)

    def truncate_log_suffix(self, offset: int) -> None:
        del self._log[offset:]

    def write_meta(self, key: str, value: object) -> None:
        self._meta[key] = copy.deepcopy(value)

    def read_meta(self, key: str, default: object = None) -> object:
        return copy.deepcopy(self._meta.get(key, default))


class FileStableStorage(StableStorage):
    """Stable storage backed by a directory of real files.

    Layout::

        <root>/tables/<name>.tbl   pickled (name, TableData); the file name
                                   is the table name, percent-escaped
        <root>/wal.log             [magic] + raw log bytes
        <root>/meta.pickle         pickled meta dict

    Table and meta writes go through a temp-file + ``os.replace`` so a crash
    mid-write never leaves a torn file.  The log is only ever appended to
    or cut at its end.

    The object is its directory's only writer, so it keeps the log's length
    instead of asking the file system for it on every append.
    """

    def __init__(self, root: str):
        self.root = root
        self._tables_dir = os.path.join(root, "tables")
        self._log_path = os.path.join(root, "wal.log")
        self._meta_path = os.path.join(root, "meta.pickle")
        os.makedirs(self._tables_dir, exist_ok=True)
        if not os.path.exists(self._log_path):
            self._atomic_write(self._log_path, _LOG_MAGIC)
        with open(self._log_path, "rb") as handle:
            if handle.read(len(_LOG_MAGIC)) != _LOG_MAGIC:
                raise StorageFault(f"{self._log_path} is not a log file of this layout")
        self._log_len = os.path.getsize(self._log_path) - len(_LOG_MAGIC)

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

    def _append_log_raw(self, payload: bytes) -> int:
        offset = self._log_len
        self._durable_append(self._log_path, payload)
        self._log_len += len(payload)
        return offset

    def read_log(self, start: int = 0) -> bytes:
        with open(self._log_path, "rb") as handle:
            handle.seek(len(_LOG_MAGIC) + start)
            raw = handle.read()
            # every boot starts here: take the length from the device, in
            # case an append that raised half-way left more than was counted
            self._log_len = os.fstat(handle.fileno()).st_size - len(_LOG_MAGIC)
        return raw

    def log_size(self) -> int:
        return self._log_len

    def truncate_log_suffix(self, offset: int) -> None:
        if offset >= self._log_len:
            return
        with open(self._log_path, "r+b") as handle:
            handle.truncate(len(_LOG_MAGIC) + offset)
            os.fsync(handle.fileno())
        self._log_len = offset

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
