"""Volatile table representation: rows in memory plus a primary-key index.

A :class:`Table` wraps a :class:`~repro.engine.storage.TableData` image and
adds the structures that are *not* persisted (the PK hash index and the
ordered secondary indexes).  All methods here are unlogged primitives — the
logged mutation API lives on :class:`~repro.engine.database.Database`,
which writes WAL records before calling these.  Because undo, redo, crash
recovery, checkpoint loads, and time-travel reconstruction all route
through these same primitives, index maintenance here is automatically
consistent across every one of those paths — the indexes are *derived*
state, rebuilt from the catalog's index DDL whenever a table image is
(re)loaded, never persisted themselves.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Any, Iterator

from repro.errors import IntegrityError, InternalError
from repro.engine.schema import TableSchema
from repro.engine.storage import TableData

__all__ = ["OrderedIndex", "Table"]


class OrderedIndex:
    """Ordered secondary index over one column: sorted keys + sorted postings.

    Two maintained invariants replace the seed's hash-of-sets design:

    * ``_keys`` is the sorted list of distinct non-NULL key values, kept
      ordered with :func:`bisect.insort` — range probes (``<``, ``<=``,
      ``>``, ``>=``, ``BETWEEN``) are two bisects plus a slice, and ORDER BY
      on the indexed column can stream in key order.
    * each posting list is a sorted list of rowids, maintained on every
      add/remove — equality probes return it directly instead of re-sorting
      a set per call (the old ``sorted(bucket)``-per-probe cost).

    NULL keys live in a separate posting list: SQL comparisons with NULL
    are never true, so range probes skip them, while ordered iteration
    places them first ascending / last descending (matching the executor's
    ``sort_key`` NULLS-FIRST-ASC collation exactly).

    Values within one column are homogeneous (the schema coerces them), so
    bisecting the raw values is safe.
    """

    __slots__ = ("_postings", "_keys", "_nulls")

    def __init__(self) -> None:
        #: non-NULL key value -> sorted list of rowids
        self._postings: dict[Any, list[int]] = {}
        #: sorted distinct non-NULL key values
        self._keys: list = []
        #: sorted rowids whose key is NULL
        self._nulls: list[int] = []

    def add(self, value: Any, rowid: int) -> None:
        if value is None:
            insort(self._nulls, rowid)
            return
        posting = self._postings.get(value)
        if posting is None:
            insort(self._keys, value)
            self._postings[value] = [rowid]
        else:
            insort(posting, rowid)

    def remove(self, value: Any, rowid: int) -> None:
        if value is None:
            i = bisect_left(self._nulls, rowid)
            if i < len(self._nulls) and self._nulls[i] == rowid:
                del self._nulls[i]
            return
        posting = self._postings.get(value)
        if posting is None:
            return
        i = bisect_left(posting, rowid)
        if i < len(posting) and posting[i] == rowid:
            del posting[i]
        if not posting:
            del self._postings[value]
            k = bisect_left(self._keys, value)
            if k < len(self._keys) and self._keys[k] == value:
                del self._keys[k]

    def eq(self, value: Any) -> list[int]:
        """Sorted rowids whose key equals ``value`` (no per-call sort)."""
        if value is None:
            return list(self._nulls)
        return list(self._postings.get(value, ()))

    def range(
        self,
        low: Any = None,
        high: Any = None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        desc: bool = False,
    ) -> list[int]:
        """Rowids whose key falls in the bound interval, in key order.

        ``None`` on either side means unbounded.  NULL keys never match a
        range (SQL three-valued comparison).  Within one key, rowids come
        back ascending; ``desc`` reverses the *key* order only, matching a
        stable descending sort.
        """
        keys = self._keys
        lo = 0 if low is None else (
            bisect_left(keys, low) if low_inclusive else bisect_right(keys, low)
        )
        hi = len(keys) if high is None else (
            bisect_right(keys, high) if high_inclusive else bisect_left(keys, high)
        )
        selected = keys[lo:hi]
        if desc:
            selected = reversed(selected)
        postings = self._postings
        return [rowid for key in selected for rowid in postings[key]]

    def ordered(self, *, desc: bool = False) -> Iterator[int]:
        """Every rowid in key order (NULLS FIRST ascending, last
        descending), ties in rowid order — exactly the order a stable
        ``sort_key`` sort of the rows would produce."""
        if desc:
            for key in reversed(self._keys):
                yield from self._postings[key]
            yield from self._nulls
        else:
            yield from self._nulls
            for key in self._keys:
                yield from self._postings[key]

    def __len__(self) -> int:
        return len(self._nulls) + sum(len(p) for p in self._postings.values())

    def key_count(self) -> int:
        """How many distinct non-NULL keys the index holds."""
        return len(self._keys)


class Table:
    """In-memory table: row store + PK index + ordered secondary indexes."""

    def __init__(self, data: TableData):
        self.data = data
        self._pk_index: dict[tuple, int] = {}
        #: ordered secondary indexes: column name -> OrderedIndex.
        #: Volatile (never snapshotted); rebuilt from index DDL at recovery.
        self._secondary: dict[str, OrderedIndex] = {}
        #: moved by every change to the set of secondary indexes: a compiled
        #: plan chose its access path from that set (see plancache.py)
        self.version = 0
        #: cached ascending rowid order for scan(); None = needs rebuild.
        #: Inserts extend it when rowids stay monotonic (the normal case);
        #: deletes and out-of-order redo inserts invalidate it.
        self._scan_order: list[int] | None = None
        self._rebuild_index()

    # -- construction ---------------------------------------------------------

    @classmethod
    def create(cls, schema: TableSchema) -> "Table":
        return cls(TableData(schema=schema))

    def _rebuild_index(self) -> None:
        self._pk_index.clear()
        schema = self.schema
        if not schema.primary_key:
            return
        for rowid, row in self.data.rows.items():
            key = schema.key_of(row)
            if key in self._pk_index:
                raise InternalError(
                    f"duplicate primary key {key!r} while loading table {schema.name}"
                )
            self._pk_index[key] = rowid

    # -- introspection -----------------------------------------------------------

    @property
    def schema(self) -> TableSchema:
        return self.data.schema

    @property
    def name(self) -> str:
        return self.data.schema.name

    def row_count(self) -> int:
        return len(self.data.rows)

    def scan(self) -> Iterator[tuple[int, tuple]]:
        """Iterate (rowid, row) in insertion (rowid) order.

        The sorted rowid order is cached and maintained incrementally across
        monotonic inserts, so repeated scans (the analytic hot path) stop
        paying an O(n log n) sort each.
        """
        rows = self.data.rows
        for rowid in self._rowids_in_order():
            yield rowid, rows[rowid]

    def rows(self) -> list[tuple]:
        """Every row in rowid order: what :meth:`scan` yields, without the
        ids, read in one pass."""
        return list(map(self.data.rows.__getitem__, self._rowids_in_order()))

    def _rowids_in_order(self) -> list[int]:
        order = self._scan_order
        if order is None:
            order = self._scan_order = sorted(self.data.rows)
        return order

    def get(self, rowid: int) -> tuple | None:
        return self.data.rows.get(rowid)

    def lookup_key(self, key: tuple) -> int | None:
        """Row id for a primary-key value, or None."""
        return self._pk_index.get(key)

    # -- secondary indexes -------------------------------------------------------

    def add_secondary_index(self, column: str) -> None:
        """Build an ordered index over ``column`` (idempotent)."""
        column = column.lower()
        if column in self._secondary:
            return
        position = self.schema.column_index(column)
        index = OrderedIndex()
        for rowid, row in self.data.rows.items():
            index.add(row[position], rowid)
        self._secondary[column] = index
        self.version += 1

    def drop_secondary_index(self, column: str) -> None:
        if self._secondary.pop(column.lower(), None) is not None:
            self.version += 1

    def has_secondary_index(self, column: str) -> bool:
        return column.lower() in self._secondary

    def index_key_count(self, column: str) -> int:
        """How many distinct non-NULL values the index on ``column`` holds."""
        return self._secondary[column.lower()].key_count()

    def index_lookup(self, column: str, value) -> list[int]:
        """Rowids whose ``column`` equals ``value`` (sorted postings — no
        per-probe sort)."""
        return self._secondary[column.lower()].eq(value)

    def index_range(
        self,
        column: str,
        low=None,
        high=None,
        *,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
        desc: bool = False,
    ) -> list[int]:
        """Rowids whose ``column`` falls in the bound interval (key order)."""
        return self._secondary[column.lower()].range(
            low, high,
            low_inclusive=low_inclusive,
            high_inclusive=high_inclusive,
            desc=desc,
        )

    def index_ordered(self, column: str, *, desc: bool = False) -> Iterator[int]:
        """Every rowid in ``column`` key order (see OrderedIndex.ordered)."""
        return self._secondary[column.lower()].ordered(desc=desc)

    def _secondary_add(self, rowid: int, row: tuple) -> None:
        for column, index in self._secondary.items():
            index.add(row[self.schema.column_index(column)], rowid)

    def _secondary_remove(self, rowid: int, row: tuple) -> None:
        for column, index in self._secondary.items():
            index.remove(row[self.schema.column_index(column)], rowid)

    # -- unlogged mutation primitives ------------------------------------------------

    def check_insert(self, row: tuple) -> None:
        """Raise IntegrityError if inserting ``row`` would violate the PK.

        Called by the logged API *before* it writes the WAL record.
        """
        schema = self.schema
        if schema.primary_key and schema.key_of(row) in self._pk_index:
            raise IntegrityError(
                f"duplicate primary key {schema.key_of(row)!r} in table {schema.name}"
            )

    def check_update(self, rowid: int, new_row: tuple) -> None:
        """Raise IntegrityError if updating ``rowid`` to ``new_row`` would
        collide with another row's primary key."""
        schema = self.schema
        if not schema.primary_key:
            return
        new_key = schema.key_of(new_row)
        existing = self._pk_index.get(new_key)
        if existing is not None and existing != rowid:
            raise IntegrityError(
                f"duplicate primary key {new_key!r} in table {schema.name}"
            )

    def insert(self, row: tuple, rowid: int | None = None) -> int:
        """Insert a coerced row; returns its rowid.

        ``rowid`` is supplied during redo to reproduce the original id.
        """
        schema = self.schema
        if schema.primary_key:
            key = schema.key_of(row)
            if key in self._pk_index:
                raise IntegrityError(
                    f"duplicate primary key {key!r} in table {schema.name}"
                )
        if rowid is None:
            rowid = self.data.next_rowid
            self.data.next_rowid += 1
        else:
            self.data.next_rowid = max(self.data.next_rowid, rowid + 1)
        if rowid in self.data.rows:
            raise InternalError(f"rowid {rowid} already present in {schema.name}")
        order = self._scan_order
        if order is not None:
            if not order or rowid > order[-1]:
                order.append(rowid)
            else:
                self._scan_order = None  # out-of-order redo insert
        self.data.rows[rowid] = row
        if schema.primary_key:
            self._pk_index[schema.key_of(row)] = rowid
        self._secondary_add(rowid, row)
        return rowid

    def delete(self, rowid: int) -> tuple:
        """Remove a row; returns the deleted row (the undo image)."""
        try:
            row = self.data.rows.pop(rowid)
        except KeyError:
            raise InternalError(f"rowid {rowid} not in table {self.name}") from None
        self._scan_order = None
        if self.schema.primary_key:
            self._pk_index.pop(self.schema.key_of(row), None)
        self._secondary_remove(rowid, row)
        return row

    def update(self, rowid: int, new_row: tuple) -> tuple:
        """Replace a row in place; returns the before image."""
        schema = self.schema
        try:
            old_row = self.data.rows[rowid]
        except KeyError:
            raise InternalError(f"rowid {rowid} not in table {self.name}") from None
        if schema.primary_key:
            old_key = schema.key_of(old_row)
            new_key = schema.key_of(new_row)
            if new_key != old_key:
                existing = self._pk_index.get(new_key)
                if existing is not None and existing != rowid:
                    raise IntegrityError(
                        f"duplicate primary key {new_key!r} in table {schema.name}"
                    )
                self._pk_index.pop(old_key, None)
                self._pk_index[new_key] = rowid
        self._secondary_remove(rowid, old_row)
        self.data.rows[rowid] = new_row
        self._secondary_add(rowid, new_row)
        return old_row
