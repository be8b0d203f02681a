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
    """Outcome of one statement.

    ``kind``:

    * ``"rows"`` — a query; ``result_set`` is populated (or a cursor was
      opened — then ``cursor_id`` is set and rows stream via FETCH);
    * ``"rowcount"`` — DML; ``rowcount`` is the affected-tuple count (the
      state the paper's status table makes testable);
    * ``"ok"`` — DDL / transaction control / SET.
    """

    kind: str
    result_set: ResultSet | None = None
    rowcount: int = 0
    message: str = ""
    cursor_id: int | None = None
    extra: dict = field(default_factory=dict)

    @classmethod
    def ok(cls, message: str = "") -> "StatementResult":
        return cls(kind="ok", message=message)

    @classmethod
    def count(cls, rowcount: int, message: str = "") -> "StatementResult":
        return cls(kind="rowcount", rowcount=rowcount, message=message)

    @classmethod
    def rows(cls, result_set: ResultSet) -> "StatementResult":
        return cls(kind="rows", result_set=result_set)
