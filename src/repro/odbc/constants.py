"""ODBC-flavoured constants: cursor types and statement attributes.

String-valued rather than the standard's integers — the *shape* of the API
(attributes set on a statement before execute decide delivery mode) is what
matters to the reproduction, not binary compatibility.
"""

from __future__ import annotations

__all__ = [
    "CursorType",
    "StatementAttr",
    "DEFAULT_FETCH_BLOCK",
    "DEFAULT_BATCH_SIZE",
]


class CursorType:
    """Mirror of SQL_ATTR_CURSOR_TYPE values (paper §3 "Result Sets" /
    "Cursors")."""

    FORWARD_ONLY = "default"  # default result set: server ships all rows
    KEYSET = "keyset"
    DYNAMIC = "dynamic"

    ALL = (FORWARD_ONLY, KEYSET, DYNAMIC)


class StatementAttr:
    """Attributes settable on a statement handle before execute."""

    CURSOR_TYPE = "cursor_type"
    FETCH_BLOCK_SIZE = "fetch_block_size"
    #: statements per wire batch for executemany (the SQL_ATTR_PARAMSET_SIZE
    #: analog); 1 = one round trip per statement
    BATCH_SIZE = "batch_size"


#: rows per FETCH round trip for server cursors
DEFAULT_FETCH_BLOCK = 100

#: statements per BatchExecuteRequest for executemany
DEFAULT_BATCH_SIZE = 16
