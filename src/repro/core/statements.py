"""Client-side records of server-materialized session state.

The paper splits session state into elements with different lifetimes and
recovery needs (§3 "Decomposing and Persisting Application ODBC State").
These dataclasses are the client half of that split: enough information,
kept in (client-side, non-persistent) memory, to find and re-attach the
persistent tables after the server recovers.  The client is assumed to
survive — Phoenix protects against *server* failures only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.engine.schema import Column
from repro.sql import ast

__all__ = ["ResultState", "TxnReplayLog", "PendingCommit"]


@dataclass
class ResultState:
    """One query's materialized result (default result set or cursor).

    ``delivered`` is the synchronization point between client and recovered
    server state: how many rows the application has actually consumed.
    After a crash, delivery resumes at exactly this position.
    """

    seq: int
    kind: str  # "default" | "keyset" | "dynamic"
    table: str  # the persistent phx result (or keys) table
    fill_proc: str
    select: ast.Select  # redirected original query AST
    app_columns: list[Column]  # metadata as the application sees it
    base_table: str | None = None  # keyset/dynamic: the underlying table
    key_column: str | None = None
    delivered: int = 0
    last_key: Any = None  # dynamic cursors: last key seen by the app
    key_count: int | None = None  # keyset: number of captured keys
    keys_exhausted: bool = False  # dynamic: walked past the captured keys
    #: False once the application re-executed or closed the cursor that owns
    #: it; the connection then forgets the state (recovery re-attaches only
    #: what ``connection.results`` still holds)
    open: bool = True
    #: delivery mode: "buffered" (normal default result set, client buffer)
    #: or "server_cursor" (post-recovery, server-side repositioned cursor).
    mode: str = "buffered"
    cursor_id: int | None = None  # server_cursor mode

    @property
    def is_cursor(self) -> bool:
        return self.kind in ("keyset", "dynamic")


@dataclass
class TxnReplayLog:
    """Statements of the currently-open explicit transaction.

    An open transaction's effects are volatile until commit, so a crash
    erases them; Phoenix replays the whole transaction (BEGIN + statements)
    against the recovered server.  The commit itself is made testable by a
    status-table insert inside the transaction (see PendingCommit).
    """

    statements: list[str] = field(default_factory=list)
    active: bool = False
    #: the server no longer holds the transaction (its session was rebuilt,
    #: or it was aborted as a deadlock victim): the log must be replayed
    #: before the transaction's next request.  Stays set across a replay that
    #: is itself interrupted, so the next attempt starts from scratch.
    lost: bool = False

    def begin(self) -> None:
        self.statements.clear()
        self.active = True
        self.lost = False

    def record(self, sql: str) -> None:
        if self.active:
            self.statements.append(sql)

    def clear(self) -> None:
        self.statements.clear()
        self.active = False
        self.lost = False


@dataclass
class PendingCommit:
    """A commit in flight: its status-table sequence number lets Phoenix
    decide, after a crash, whether the transaction committed (probe hits)
    or was lost (probe misses → replay)."""

    seq: int
    replay: list[str]
