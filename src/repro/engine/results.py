"""Result containers shared by the executor, server, and wire protocol.

A :class:`ResultSet` is column metadata plus materialized rows.  The
metadata is a list of :class:`~repro.engine.schema.Column` — the same shape
as table schemas — because Phoenix's whole materialization trick relies on
turning result metadata directly into a CREATE TABLE statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.engine.schema import Column, TableSchema
from repro.engine.values import type_holding

__all__ = ["ResultSet", "StatementResult"]


@dataclass
class ResultSet:
    """Column descriptions + rows (fully materialized)."""

    columns: list[Column]
    rows: list[tuple]

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def to_schema(self, table_name: str) -> TableSchema:
        """Build a table schema that can hold this result (Phoenix Step 2)
        and hand its values back as they are, types included.

        A column's type was inferred before the query ran (``sum`` is FLOAT,
        an unknown function VARCHAR) and a table coerces what it stores, so
        a column whose values are not of its type's class is stored under
        the type they have (:func:`type_holding`).  ``columns`` keeps the
        inferred types: a query's description does not depend on who asks.

        Result metadata can legally repeat a name (two unaliased counts,
        ``SELECT *`` over a self-join) or leave one empty; a table cannot.
        A repeated name is stored as ``name_2``, ``name_3``, ... skipping
        every name the result itself uses, so a minted name never collides
        with an explicit alias.  ``columns`` keeps the query's own names.
        """
        taken = {column.name for column in self.columns}
        used: set[str] = set()
        stored = []
        for position, column in enumerate(self.columns):
            kinds = {type(row[position]) for row in self.rows} - {type(None)}
            holding = type_holding(kinds, column.type)
            if holding is not column.type:
                column = Column(column.name, holding, not_null=column.not_null)
            name = base = column.name or "col"
            suffix = 1
            while name in used or (suffix > 1 and name in taken):
                suffix += 1
                name = f"{base}_{suffix}"
            used.add(name)
            stored.append(column if name == column.name else replace(column, name=name))
        return TableSchema(
            name=table_name,
            columns=tuple(stored),
            temporary=table_name.startswith("#"),
        )

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class StatementResult:
    """Outcome of one statement batch, from the executor to the client's
    cursor: the engine returns it and the wire carries it as it is.

    ``kind``:

    * ``"rows"`` — a query; either its ``rows`` ride inline (a *default
      result set*) or a server cursor was opened — then ``cursor_id`` is
      set, ``rows`` is empty and rows stream via FETCH;
    * ``"rowcount"`` — DML; ``rowcount`` is the affected-tuple count (the
      state the paper's status table makes testable);
    * ``"ok"`` — DDL / transaction control / SET.
    """

    kind: str = "ok"
    columns: list[Column] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    message: str = ""
    cursor_id: int | None = None
    #: the type a server cursor was opened as (a query no key serves
    #: downgrades a keyset or dynamic request)
    effective_cursor_type: str = "default"
    #: affected-row counts of every DML statement in the batch, in order —
    #: how a transaction-wrapped batch still reports the inner statement's
    #: rowcount when the final statement is the COMMIT
    batch_rowcounts: list[int] = field(default_factory=list)
    #: the query's own column description for the batch's last
    #: ``SELECT ... INTO`` — the table it created stores uniquified names,
    #: so reading it back (``columns``) cannot say what the query called them
    into_columns: list[Column] = field(default_factory=list)

    @classmethod
    def ok(cls, message: str = "") -> "StatementResult":
        return cls(kind="ok", message=message)

    @classmethod
    def count(cls, rowcount: int, message: str = "") -> "StatementResult":
        return cls(kind="rowcount", rowcount=rowcount, message=message)

    @classmethod
    def of(cls, result_set: ResultSet) -> "StatementResult":
        return cls(kind="rows", columns=result_set.columns, rows=result_set.rows)

    @property
    def result_set(self) -> ResultSet | None:
        """An inline result's rows as a :class:`ResultSet` (``None`` for
        any other outcome); ``benchmarks/e2e/harness.py`` reads it."""
        if self.kind != "rows" or self.cursor_id is not None:
            return None
        return ResultSet(self.columns, self.rows)
