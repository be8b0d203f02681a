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

__all__ = ["FillProcedure", "ResultState", "TxnReplayLog"]


@dataclass
class FillProcedure:
    """The paper's fill procedure (§3: ``CREATE PROCEDURE P (@T) AS INSERT
    <query> INTO T``) of one statement template in this session: the target
    table and the bound values are its arguments."""

    name: str
    n_values: int  # how many values the template binds
    #: what a fill sends: the constant ``EXEC name ?, ?…``, behind the creating
    #: statements until a reply has acknowledged them (a re-send re-creates)
    script: list[str]


@dataclass
class ResultState:
    """One query's materialized result: a default result set larger than
    one fetch block, or a keyset/dynamic cursor.

    ``shipped`` is the synchronization point between client and recovered
    server state: how many rows (a key cursor: keys) the server has handed
    to the client.  The client keeps what it holds across a crash, so
    delivery resumes at exactly this position.
    """

    seq: int
    kind: str  # "default" | "keyset" | "dynamic"
    table: str  # the persistent phx result (or keys) table
    select: ast.Select  # the redirected template, ``?`` and all
    app_columns: list[Column]  # metadata as the application sees it
    key_column: str | None = None
    #: a key cursor's bound values: every block it reads binds them again
    values: list = field(default_factory=list)
    shipped: int = 0
    last_key: Any = None  # dynamic cursors: last key seen by the app
    key_count: int | None = None  # keyset: number of captured keys
    keys_exhausted: bool = False  # dynamic: walked past the captured keys
    #: False once the application re-executed or closed the cursor that owns
    #: it; the connection then forgets the state (recovery re-attaches only
    #: what ``connection.results`` still holds)
    open: bool = True
    #: a default result's server cursor over its table on the app connection,
    #: opened at ``shipped`` by the first block read after the fill (and by
    #: every recovery); None before that
    cursor_id: int | None = None

    @property
    def is_cursor(self) -> bool:
        return self.kind in ("keyset", "dynamic")


@dataclass
class TxnReplayLog:
    """Statements of the currently-open explicit transaction.

    An open transaction's effects are volatile until commit, so a crash
    erases them; Phoenix replays the whole transaction (BEGIN + statements)
    against the recovered server.  The commit itself is made testable by a
    status-table insert inside the transaction (``connection.commit``).
    """

    #: (text, placeholder values) of each statement, in order
    statements: list[tuple[str, list | None]] = field(default_factory=list)
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

    def record(self, sql: str, placeholders: list | None) -> None:
        if self.active:
            self.statements.append((sql, placeholders))

    def clear(self) -> None:
        self.statements.clear()
        self.active = False
        self.lost = False
