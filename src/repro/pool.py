"""Client-side connection pooling over the PEP 249 front door.

A :class:`ConnectionPool` owns up to ``size`` live connections to one DSN
(registry name, ``tcp://`` URL, or a :class:`repro.System`) and hands them
out with bounded blocking checkout.  Every checkout runs a liveness probe
(``SELECT 1`` through the connection's *own* session — a server-reachable
ping is not enough, because a restarted server answers pings while the
pooled session is gone) and transparently replaces connections that fail
it.  That replacement policy is where the paper's comparison shows up in
miniature: a pool of plain connections replaces every member after a
server crash, while a pool of Phoenix connections passes the same probe by
*recovering* — same pool, zero replacements.

Checkin rolls back any transaction the borrower left open (pool hygiene:
the next borrower must never inherit someone else's transaction) and
discards broken or closed connections so the pool heals back to capacity
on demand.  Counters land in the owning system's
``MetricsRegistry.snapshot()["net"]`` when the DSN resolves to a
registered system — by name or via the name in a ``tcp://host:port/name``
URL (pass ``stats=`` explicitly otherwise).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager

import repro as _repro
from repro import errors
from repro.net.metrics import NetStats

__all__ = ["ConnectionPool"]

DEFAULT_CHECKOUT_TIMEOUT = 5.0


class ConnectionPool:
    """A bounded pool of PEP 249 connections to one DSN."""

    def __init__(
        self,
        dsn,
        size: int,
        *,
        phoenix: bool = True,
        user: str = "app",
        options: dict | None = None,
        config=None,
        checkout_timeout: float = DEFAULT_CHECKOUT_TIMEOUT,
        stats: NetStats | None = None,
    ):
        if size < 1:
            raise errors.InterfaceError(f"pool size must be >= 1, got {size}")
        self.dsn = dsn
        self.size = size
        self.checkout_timeout = checkout_timeout
        self.stats = stats if stats is not None else _resolve_stats(dsn)
        self._phoenix = phoenix
        self._user = user
        self._options = options
        self._config = config
        self._cond = threading.Condition()
        self._idle: deque = deque()
        self._in_use = 0
        self._closed = False

    # -- checkout / checkin ----------------------------------------------------

    def checkout(self, timeout: float | None = None):
        """Borrow a live connection; blocks up to ``timeout`` seconds when
        all ``size`` slots are out, then raises
        :class:`~repro.errors.OperationalError`."""
        if timeout is None:
            timeout = self.checkout_timeout
        deadline = time.monotonic() + timeout
        with self._cond:
            self._require_open()
            while not self._idle and self._in_use >= self.size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self.stats.pool_exhaustion()
                    raise errors.OperationalError(
                        f"connection pool exhausted: {self.size}/{self.size} "
                        f"checked out after waiting {timeout:.3g}s"
                    )
                self._cond.wait(remaining)
                self._require_open()
            conn = self._idle.popleft() if self._idle else None
            self._in_use += 1  # the slot is reserved before any wire work
        try:
            if conn is None:
                conn = self._connect()
            elif not self._is_live(conn):
                self.stats.pool_replacement()
                self._discard(conn)
                conn = self._connect()
        except BaseException:
            with self._cond:
                self._in_use -= 1
                self._cond.notify()
            raise
        self.stats.pool_checkout()
        return conn

    def checkin(self, conn) -> None:
        """Return a borrowed connection.  Open transactions roll back;
        closed or broken connections are discarded (the slot frees up and
        the next checkout creates a replacement)."""
        self.stats.pool_checkin()
        returnable = not conn.closed and not self._closed
        if returnable and conn.in_transaction:
            try:
                conn.rollback()  # the next borrower never inherits a txn
            except errors.Error:
                returnable = False
        if returnable and conn.broken:
            returnable = False
        if not returnable:
            self._discard(conn)
        with self._cond:
            self._in_use -= 1
            if returnable and not self._closed:
                self._idle.append(conn)
            self._cond.notify()

    @contextmanager
    def connection(self, timeout: float | None = None):
        """``with pool.connection() as conn:`` — checkout/checkin with the
        PEP 249 block semantics (commit an open transaction on success,
        roll it back on exception)."""
        conn = self.checkout(timeout)
        try:
            yield conn
        except BaseException:
            if not conn.closed and conn.in_transaction:
                try:
                    conn.rollback()
                except errors.Error:
                    pass  # checkin discards what rollback can't clean
            self.checkin(conn)
            raise
        else:
            try:
                if not conn.closed and conn.in_transaction:
                    conn.commit()  # a failed commit must not pass silently
            finally:
                self.checkin(conn)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Close every idle connection and refuse further checkouts.
        Borrowed connections are discarded as they come back."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle = list(self._idle)
            self._idle.clear()
            self._cond.notify_all()
        for conn in idle:
            self._discard(conn)

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def in_use(self) -> int:
        with self._cond:
            return self._in_use

    @property
    def idle(self) -> int:
        with self._cond:
            return len(self._idle)

    # -- internals -------------------------------------------------------------

    def _require_open(self) -> None:
        if self._closed:
            raise errors.InterfaceError("connection pool is closed")

    def _connect(self):
        return _repro.connect(
            self.dsn,
            phoenix=self._phoenix,
            user=self._user,
            options=self._options,
            config=self._config,
        )

    def _is_live(self, conn) -> bool:
        """Probe the connection's own session, not just the server."""
        if conn.closed:
            return False
        self.stats.pool_ping()
        cursor = None
        try:
            cursor = conn.cursor()
            cursor.execute("SELECT 1")
            cursor.fetchall()
            return True
        except errors.Error:
            return False
        finally:
            if cursor is not None:
                try:
                    cursor.close()
                except errors.Error:
                    pass

    @staticmethod
    def _discard(conn) -> None:
        try:
            conn.close()
        except errors.Error:
            pass  # closing a dead connection is best-effort


def _resolve_stats(dsn) -> NetStats:
    """Default counters: the owning system's ``registry.net`` when the DSN
    resolves to a registered system — by name, or by the name embedded in
    a ``tcp://host:port/name`` URL — else a private object."""
    system = None
    if isinstance(dsn, _repro.System):
        system = dsn
    elif isinstance(dsn, str):
        name = dsn
        if dsn.startswith("tcp://"):
            try:
                _host, _port, name = _repro._parse_url_dsn(dsn)
            except errors.Error:
                name = None
        if name is not None:
            system = _repro._systems.get(name)
    if system is not None:
        return system.registry.net
    return NetStats()
