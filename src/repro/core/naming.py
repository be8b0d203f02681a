"""Name allocation for Phoenix-managed server objects.

Every Phoenix connection gets a client id; all objects it creates on the
server are prefixed with it, so (a) names never collide across concurrent
Phoenix connections, (b) cleanup can enumerate exactly its own objects, and
(c) the names are *known client-side* — after a crash, the client (which
survived) still knows where its materialized state lives.  No server-side
registry is needed.
"""

from __future__ import annotations

import itertools

__all__ = ["NameAllocator", "PROXY_TABLE"]

_client_ids = itertools.count(1)

#: the session-scoped temp table used as the crash probe (paper §3: "we test
#: whether a special temporary table created by Phoenix/ODBC for the session
#: still exists").  A real temp table — never redirected.
PROXY_TABLE = "#phx_proxy"


class NameAllocator:
    """Deterministic names for one Phoenix connection's server objects."""

    def __init__(self):
        self.client_id = next(_client_ids)
        self._seq = itertools.count(1)
        self._tables = itertools.count(1)
        self._templates = itertools.count(1)

    def next_seq(self) -> int:
        """Statement sequence number (also keys the status table)."""
        return next(self._seq)

    @property
    def status_table(self) -> str:
        return f"phx_c{self.client_id}_status"

    def next_table(self) -> str:
        """One per *attempt* to fill a result; every logged row carries it."""
        return f"phx_c{self.client_id}_t{next(self._tables)}"

    def next_query_procedure(self) -> str:
        """One per statement *template*, however often it is executed."""
        return f"phx_c{self.client_id}_q{next(self._templates)}"

    def redirected_table(self, temp_name: str) -> str:
        """Persistent stand-in for an application temp table ``#name``."""
        return f"phx_c{self.client_id}_tmp_{temp_name.lstrip('#').lower()}"

    def redirected_procedure(self, temp_name: str) -> str:
        return f"phx_c{self.client_id}_proc_{temp_name.lstrip('#').lower()}"
