"""Server-side cursors: default result sets, keyset cursors, dynamic cursors.

These mirror the three delivery modes §3 of the paper distinguishes:

* **default result set** — the server materializes all rows at execute time
  and streams them; the client buffers.  (`DefaultResultSetCursor`)
* **keyset cursor** — the *membership* of the result is frozen at open time
  (the key set), but row values are read from the base table at fetch time:
  updates show through, deleted rows leave holes.  (`KeysetCursor`)
* **dynamic cursor** — nothing is frozen; each block fetch re-evaluates the
  predicate beyond the last-seen key, so inserts and deletes both show
  through.  (`DynamicCursor`)

Keyset/dynamic cursors need a single-table query with a usable primary key;
for anything else the server silently *downgrades* to a default result set,
exactly as real ODBC drivers downgrade unsupported cursor types (the
response carries the effective type so clients can tell).

All cursors are volatile session state: a crash destroys them — that is the
hole Phoenix plugs by persisting their state as tables.
"""

from __future__ import annotations

import itertools

from repro.errors import ProgrammingError
from repro.engine.results import ResultSet
from repro.engine.schema import Column
from repro.sql import ast
from repro.sql.walk import key_cursor_source, key_query, with_false_where

__all__ = [
    "CursorType",
    "ServerCursor",
    "DefaultResultSetCursor",
    "KeysetCursor",
    "DynamicCursor",
    "open_cursor",
    "cursor_query_is_keyable",
]

_cursor_ids = itertools.count(1)


class CursorType:
    """Cursor type names used across the wire (string constants, mirroring
    ODBC's SQL_CURSOR_* statement attribute)."""

    DEFAULT = "default"  # a.k.a. forward-only default result set
    KEYSET = "keyset"
    DYNAMIC = "dynamic"

    ALL = (DEFAULT, KEYSET, DYNAMIC)


class ServerCursor:
    """Base: identity, metadata, and forward block fetching."""

    def __init__(self, columns: list[Column]):
        self.cursor_id = next(_cursor_ids)
        self.columns = columns
        self.position = 0  # rows already delivered
        self.closed = False

    @property
    def effective_type(self) -> str:
        raise NotImplementedError

    def fetch(self, n: int) -> tuple[list[tuple], bool]:
        """Return (rows, done). ``done`` is True when the cursor is drained."""
        raise NotImplementedError

    def advance_to(self, position: int) -> None:
        """Skip forward so the next fetch starts at ``position`` (0-based).

        This is the server-side repositioning primitive Phoenix's recovery
        uses (paper §4: a stored procedure advances to a specified tuple
        without shipping rows to the client).
        """
        if position < self.position:
            raise ProgrammingError("cursors only advance forward")
        while self.position < position:
            chunk, done = self.fetch(min(1024, position - self.position))
            if done and self.position < position:
                break

    def close(self) -> None:
        self.closed = True


class DefaultResultSetCursor(ServerCursor):
    """Fully materialized rows, delivered in blocks."""

    def __init__(self, result: ResultSet):
        super().__init__(result.columns)
        self.rows = result.rows

    @property
    def effective_type(self) -> str:
        return CursorType.DEFAULT

    def fetch(self, n: int) -> tuple[list[tuple], bool]:
        chunk = self.rows[self.position : self.position + n]
        self.position += len(chunk)
        return chunk, self.position >= len(self.rows)

    def advance_to(self, position: int) -> None:
        if position < self.position:
            raise ProgrammingError("cursors only advance forward")
        self.position = min(position, len(self.rows))


def cursor_query_is_keyable(select: ast.Select, executor) -> str | None:
    """If ``select`` supports key-based cursors, return the key column: it
    has the shape Phoenix's key cursors ask for too, and its table a
    single-column primary key."""
    source = key_cursor_source(select)
    if source is None:
        return None
    try:
        table, _ = executor.resolve_table(source.name)
    except Exception:
        return None
    if len(table.schema.primary_key) != 1:
        return None
    return table.schema.primary_key[0]


class _KeyCursorBase(ServerCursor):
    """Shared plumbing for keyset/dynamic cursors over (table, key).  Every
    read is a SELECT through the executor — one planner, one access path —
    run with the ``?`` values the cursor was opened with."""

    def __init__(self, executor, select: ast.Select, key_column: str, placeholders: list | None):
        self.executor = executor
        self.select = select
        self.key_column = key_column
        self.placeholders = placeholders
        super().__init__(self._run(with_false_where(select)).columns)

    def _run(self, select: ast.Select, **params) -> ResultSet:
        return self.executor.execute_select(
            select, params=params, placeholders=self.placeholders
        )


class KeysetCursor(_KeyCursorBase):
    """Membership frozen at open; values read through at fetch time."""

    def __init__(self, executor, select: ast.Select, key_column: str, placeholders):
        super().__init__(executor, select, key_column, placeholders)
        self.keys = [row[0] for row in self._run(key_query(select, key_column)).rows]
        self.holes = 0  # rows whose key vanished before fetch (deleted)
        #: the select list of the row a captured key names now: one tree
        #: for the cursor's life, so its plan (a PK lookup, the projection
        #: compiled once) comes from the plan cache at every fetch
        self.row_query = ast.Select(
            select.items,
            select.from_,
            ast.Binary("=", ast.ColumnRef(key_column), ast.Param("cursor_key")),
        )

    @property
    def effective_type(self) -> str:
        return CursorType.KEYSET

    def fetch(self, n: int) -> tuple[list[tuple], bool]:
        out: list[tuple] = []
        while len(out) < n and self.position < len(self.keys):
            rows = self._run(self.row_query, cursor_key=self.keys[self.position]).rows
            self.position += 1
            if rows:
                out.append(rows[0])
            else:
                self.holes += 1  # deleted since open: a keyset "hole"
        return out, self.position >= len(self.keys)

    def advance_to(self, position: int) -> None:
        if position < self.position:
            raise ProgrammingError("cursors only advance forward")
        self.position = min(position, len(self.keys))


class DynamicCursor(_KeyCursorBase):
    """Re-evaluates the predicate past the last-seen key on every block, so
    concurrent inserts/deletes are visible."""

    def __init__(self, executor, select: ast.Select, key_column: str, placeholders):
        if select.order_by:
            raise ProgrammingError(
                "dynamic cursors deliver in key order; ORDER BY is not supported"
            )
        super().__init__(executor, select, key_column, placeholders)
        self.last_key = None
        self.drained = False

    @property
    def effective_type(self) -> str:
        return CursorType.DYNAMIC

    def _block_query(self, n: int) -> ast.Select:
        where = self.select.where
        if self.last_key is not None:
            beyond = ast.Binary(
                ">", ast.ColumnRef(self.key_column), ast.Literal(self.last_key)
            )
            where = beyond if where is None else ast.Binary("AND", where, beyond)
        items = list(self.select.items) + [
            ast.SelectItem(ast.ColumnRef(self.key_column), alias="__cursor_key")
        ]
        return ast.Select(
            items=items,
            from_=self.select.from_,
            where=where,
            order_by=[ast.OrderItem(ast.ColumnRef(self.key_column))],
            limit=n,
        )

    def fetch(self, n: int) -> tuple[list[tuple], bool]:
        if self.drained:
            return [], True
        block = self._run(self._block_query(n))
        rows = []
        for row in block.rows:
            rows.append(row[:-1])  # strip the tracking key column
            self.last_key = row[-1]
        self.position += len(rows)
        if len(rows) < n:
            self.drained = True
        return rows, self.drained


def open_cursor(
    executor, select: ast.Select, requested_type: str, placeholders: list | None = None
) -> ServerCursor:
    """Open the best cursor for ``requested_type`` over ``select`` with its
    ``?`` bound to ``placeholders``, downgrading when the query shape does
    not support key-based cursors."""
    if requested_type not in CursorType.ALL:
        raise ProgrammingError(f"unknown cursor type {requested_type!r}")
    if requested_type in (CursorType.KEYSET, CursorType.DYNAMIC):
        key_column = cursor_query_is_keyable(select, executor)
        if key_column is not None:
            cursor_class = KeysetCursor if requested_type == CursorType.KEYSET else DynamicCursor
            return cursor_class(executor, select, key_column, placeholders)
    return DefaultResultSetCursor(executor.execute_select(select, placeholders=placeholders))
