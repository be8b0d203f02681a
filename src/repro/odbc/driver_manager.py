"""The plain driver manager: what applications program against.

``DriverManager.connect(dsn)`` returns a :class:`Connection`;
``Connection.cursor()`` returns a :class:`Statement` with a DB-API-flavoured
surface (``execute`` / ``fetchone`` / ``fetchmany`` / ``fetchall`` /
``description`` / ``rowcount``) plus ODBC statement attributes (cursor type,
fetch block size).

These classes are deliberately thin — they route calls to the native driver
and do nothing about failures.  They are also the *one* PEP 249 surface:
Phoenix/ODBC (:mod:`repro.core`) subclasses :class:`Connection` and
:class:`Statement`, wrapping the same native driver, and overrides only the
interception points — how ``execute`` obtains a response, how a drained
client buffer is refilled, transaction control, and what closing releases —
demonstrating the paper's "no changes to app, driver, or server" claim.
"""

from __future__ import annotations

import weakref
from typing import Any

from repro import errors
from repro.errors import InterfaceError, ProgrammingError
from repro.engine.schema import Column
from repro.net.protocol import ResultResponse
from repro.odbc.constants import (
    DEFAULT_BATCH_SIZE,
    DEFAULT_FETCH_BLOCK,
    CursorType,
    StatementAttr,
)
from repro.obs.tracer import get_tracer
from repro.odbc.driver import DriverConnection, NativeDriver

__all__ = ["DriverManager", "Connection", "Statement", "describe_columns"]


def describe_columns(columns: list[Column]) -> list[tuple]:
    """DB-API style 7-tuples from engine column metadata."""
    return [
        (c.name, c.type.value, None, c.length, c.precision, c.scale, not c.not_null)
        for c in columns
    ]


class DriverManager:
    """Registry of DSN → native driver, and the application's entry point."""

    def __init__(self):
        self._drivers: dict[str, NativeDriver] = {}

    def register_dsn(self, dsn: str, driver: NativeDriver) -> None:
        self._drivers[dsn] = driver

    def driver_for(self, dsn: str) -> NativeDriver:
        try:
            return self._drivers[dsn]
        except KeyError:
            raise InterfaceError(f"unknown DSN {dsn!r}") from None

    def connect(
        self, dsn: str, user: str = "app", options: dict[str, Any] | None = None
    ) -> "Connection":
        with get_tracer().span("odbc.connect", dsn=dsn, user=user):
            driver = self.driver_for(dsn)
            driver_connection = driver.connect(user, options)
            return Connection(self, dsn, driver_connection, options or {})


class Connection:
    """An application connection handle."""

    # PEP 249 optional extension: the error hierarchy as connection
    # attributes, so multi-driver code can write `except conn.Error:`
    Warning = errors.Warning
    Error = errors.Error
    InterfaceError = errors.InterfaceError
    DatabaseError = errors.DatabaseError
    DataError = errors.DataError
    OperationalError = errors.OperationalError
    IntegrityError = errors.IntegrityError
    InternalError = errors.InternalError
    ProgrammingError = errors.ProgrammingError
    NotSupportedError = errors.NotSupportedError

    def __init__(
        self,
        manager: DriverManager,
        dsn: str,
        driver_connection: DriverConnection | None,
        options: dict[str, Any],
    ):
        self.manager = manager
        self.dsn = dsn
        #: what this handle's statements talk to (Phoenix installs its app
        #: connection here, and re-installs a fresh one on every recovery)
        self._driver_connection = driver_connection
        self.options = dict(options)
        self.closed = False
        #: every live cursor of this connection, so close() can release them
        #: (weak: a cursor the application dropped is nobody's to close)
        self._cursors: weakref.WeakSet[Statement] = weakref.WeakSet()
        #: connection-level transaction flag backing :attr:`in_transaction`;
        #: tracks begin()/commit()/rollback() calls on *this* handle (SQL
        #: issued through a cursor is the application's own bookkeeping)
        self._txn_open = False

    # -- DB-API-ish surface ------------------------------------------------------

    def cursor(self) -> "Statement":
        self._require_open()
        return Statement(self)

    def begin(self) -> None:
        self._execute_raw("BEGIN TRANSACTION")
        self._txn_open = True

    def commit(self) -> None:
        self._execute_raw("COMMIT")
        self._txn_open = False

    def rollback(self) -> None:
        self._execute_raw("ROLLBACK")
        self._txn_open = False

    @property
    def in_transaction(self) -> bool:
        """True between :meth:`begin` and the matching commit/rollback."""
        return self._txn_open

    @property
    def broken(self) -> bool:
        """True once the wire under this handle died: every further call
        would fail, so pools discard the handle instead of reusing it."""
        return self._driver_connection.broken

    def close(self) -> None:
        if self.closed:
            return
        for cursor in list(self._cursors):
            cursor.close()
        self._release()
        self.closed = True

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # PEP 249 common extension, then close: a transaction left open by
        # the block commits on success and rolls back on exception, and the
        # handle is released either way (the historical `with` contract
        # here — sessions are autocommit outside an explicit begin()).
        try:
            if self.in_transaction and not self.closed and not self.broken:
                if exc_type is None:
                    self.commit()
                else:
                    self.rollback()
        except errors.Error:
            if exc_type is None:
                raise  # a failed commit must not pass silently
            # an exception is already flying; don't mask it with cleanup
        finally:
            self.close()

    # -- internals -----------------------------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            raise InterfaceError("connection is closed")

    def _execute_raw(self, sql: str) -> ResultResponse:
        self._require_open()
        return self._driver_connection.execute(sql)

    def _release(self) -> None:
        """Give the server session back (the tail of :meth:`close`)."""
        self._driver_connection.disconnect()


class Statement:
    """A statement handle: execute once, then fetch.

    For default result sets the whole result arrives with the execute reply
    and fetches drain a client-side buffer (the paper's "the client must
    buffer any rows not used immediately").  For keyset/dynamic cursors each
    exhausted block triggers a FETCH round trip.
    """

    def __init__(self, connection: Connection):
        self.connection = connection
        connection._cursors.add(self)
        self.attrs: dict[str, Any] = {
            StatementAttr.CURSOR_TYPE: CursorType.FORWARD_ONLY,
            StatementAttr.FETCH_BLOCK_SIZE: DEFAULT_FETCH_BLOCK,
            StatementAttr.QUERY_TIMEOUT: None,
            # the plain stack has no wire batching, so this never changes
            # behaviour here; Phoenix's executemany reads it
            StatementAttr.BATCH_SIZE: DEFAULT_BATCH_SIZE,
        }
        #: PEP 249: default size of a no-argument fetchmany()
        self.arraysize = 1
        self.closed = False
        self._reset_result()

    def _reset_result(self) -> None:
        self.description: list[tuple] | None = None
        self.columns: list[Column] = []
        self.rowcount: int = -1
        self.messages: list[str] = []
        self._buffer: list[tuple] = []
        self._buffer_pos = 0
        self._cursor_id: int | None = None
        #: nothing is left to refill the buffer from
        self._server_done = True
        self._rows_read = 0
        self.effective_cursor_type: str = CursorType.FORWARD_ONLY

    # -- attributes ----------------------------------------------------------------

    def set_attr(self, name: str, value: Any) -> None:
        if name not in self.attrs:
            raise ProgrammingError(f"unknown statement attribute {name!r}")
        self.attrs[name] = value

    # -- execute -----------------------------------------------------------------------

    def execute(self, sql: str, placeholders: list | None = None) -> "Statement":
        self._require_open()
        self._reset_result()
        response = self.connection._driver_connection.execute(
            sql,
            placeholders=list(placeholders or []),
            cursor_type=self.attrs[StatementAttr.CURSOR_TYPE],
        )
        self._absorb(response)
        return self

    def _absorb(self, response: ResultResponse) -> None:
        if response.kind == "rows":
            self.columns = response.columns
            self.description = describe_columns(response.columns)
            if response.cursor_id is not None:
                self._cursor_id = response.cursor_id
                self._server_done = False
                self.effective_cursor_type = response.effective_cursor_type
            else:
                self._buffer = list(response.rows)
                self._server_done = True
            self.rowcount = -1
        elif response.kind == "rowcount":
            self.rowcount = response.rowcount
            if response.message:
                self.messages.append(response.message)
        else:
            if response.message:
                self.messages.append(response.message)

    # -- fetch ---------------------------------------------------------------------------

    def executemany(self, sql: str, rows: list[list]) -> "Statement":
        """DB-API executemany: run ``sql`` once per parameter row.

        The statement's ``rowcount`` accumulates across the rows (like most
        drivers): the sum of the non-negative per-row counts — a 0-row
        UPDATE contributes 0, it is not dropped — or -1 when any execution
        reported an unknown count.  The last execution's result shape is
        retained.
        """
        self._require_open()
        total = 0
        unknown = False
        for row in rows:
            self.execute(sql, list(row))
            if self.rowcount < 0:
                unknown = True
            else:
                total += self.rowcount
        self.rowcount = -1 if unknown else total
        return self

    def fetchone(self) -> tuple | None:
        rows = self.fetchmany(1)
        return rows[0] if rows else None

    def fetchmany(self, n: int | None = None) -> list[tuple]:
        self._require_open()
        if n is None:
            n = max(int(self.arraysize), 1)
        out: list[tuple] = []
        while len(out) < n:
            wanted = n - len(out)
            if self._buffer_pos >= len(self._buffer) and not self._refill(wanted):
                break
            taken = self._buffer[self._buffer_pos : self._buffer_pos + wanted]
            self._buffer_pos += len(taken)
            self._consumed(len(taken))
            out.extend(taken)
        return out

    def fetchall(self) -> list[tuple]:
        block = max(int(self.attrs[StatementAttr.FETCH_BLOCK_SIZE]), 1)
        out: list[tuple] = []
        while True:
            chunk = self.fetchmany(block)
            if not chunk:
                return out
            out.extend(chunk)

    def _refill(self, wanted: int) -> bool:
        """The client buffer is drained: fetch the server cursor's next
        block into it.  False when the result is exhausted."""
        while not self._server_done and self._cursor_id is not None:
            block_size = max(int(self.attrs[StatementAttr.FETCH_BLOCK_SIZE]), wanted)
            rows, self._server_done = self.connection._driver_connection.fetch(
                self._cursor_id, block_size
            )
            self._buffer = list(rows)
            self._buffer_pos = 0
            if rows:
                return True
        return False

    def _consumed(self, count: int) -> None:
        """``count`` buffered rows were just handed to the application."""
        self._rows_read += count

    @property
    def rows_read(self) -> int:
        """How many rows the application has consumed from this statement."""
        return self._rows_read

    # -- PEP 249 odds and ends ---------------------------------------------------------

    def setinputsizes(self, sizes) -> None:
        """DB-API no-op: values are bound with their Python types."""

    def setoutputsize(self, size, column=None) -> None:
        """DB-API no-op: results carry no size limits."""

    def __enter__(self) -> "Statement":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- lifecycle -------------------------------------------------------------------------

    def close(self) -> None:
        if self.closed:
            return
        if self._cursor_id is not None and not self.connection.closed:
            try:
                self.connection._driver_connection.close_cursor(self._cursor_id)
            except Exception:
                pass  # closing against a dead server is best-effort
        self.closed = True

    def _require_open(self) -> None:
        if self.closed:
            raise InterfaceError("cursor is closed")
