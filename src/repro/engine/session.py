"""Server-side sessions: the volatile state the paper is about.

A :class:`Session` owns everything that exists *only while the connection
lives*: temp tables, temp procedures, open cursors, session options, and
the current explicit transaction.  None of it is logged; a server crash
destroys all of it.  (Phoenix's proxy probe — "does my session temp table
still exist?" — works because of exactly this lifetime rule.)
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.errors import ProgrammingError
from repro.engine.cursors import ServerCursor
from repro.engine.table import Table

if TYPE_CHECKING:
    from repro.engine.transactions import Transaction

__all__ = ["Session"]

_session_ids = itertools.count(1)


class Session:
    """One connection's volatile server-side state."""

    def __init__(self, user: str):
        self.session_id = next(_session_ids)
        self.user = user
        self.options: dict[str, object] = {}
        self.temp_tables: dict[str, Table] = {}
        self.temp_procedures: dict[str, str] = {}
        self.cursors: dict[int, ServerCursor] = {}
        self.current_txn: "Transaction | None" = None
        #: affected-row count of the last DML statement — readable in SQL via
        #: the rowcount() function (our @@ROWCOUNT; Phoenix's status-table
        #: wrapper records it inside the same transaction as the DML).
        self.last_rowcount: int = 0
        #: server activity epoch of this session's last operation — stamped
        #: by the server, read by ``DatabaseServer.reap_sessions`` to find
        #: sessions orphaned by a dropped connection.
        self.last_epoch: int = 0
        self.closed = False

    def register_cursor(self, cursor: ServerCursor) -> int:
        self.cursors[cursor.cursor_id] = cursor
        return cursor.cursor_id

    def get_cursor(self, cursor_id: int) -> ServerCursor:
        try:
            return self.cursors[cursor_id]
        except KeyError:
            raise ProgrammingError(f"no open cursor {cursor_id}") from None

    def close_cursor(self, cursor_id: int) -> None:
        cursor = self.cursors.pop(cursor_id, None)
        if cursor is not None:
            cursor.close()

    def close(self) -> None:
        """Normal termination: everything volatile is discarded."""
        for cursor in self.cursors.values():
            cursor.close()
        self.cursors.clear()
        self.temp_tables.clear()
        self.temp_procedures.clear()
        self.closed = True
