"""Phoenix/ODBC — persistent client-server database sessions.

The paper's contribution: an *enhanced driver manager* that gives
applications database sessions that survive server crashes, with no changes
to the application, the native driver, or the server.

Public surface (drop-in for :mod:`repro.odbc`):

* :class:`PhoenixDriverManager` — ``connect(dsn)`` returns a
  :class:`PhoenixConnection` whose cursors behave exactly like plain
  :class:`repro.odbc.Statement` objects, except that a server crash shows
  up only as latency.
* :class:`PhoenixConfig` — the recovery sleep hook and the deadlock
  retry bound.  The paper's design decisions (stored-procedure fill, ``WHERE 0=1``
  metadata probe, server-side repositioning, status-table wrapper) are not
  among them: each has one path here.
"""

from repro.core.config import PhoenixConfig
from repro.core.connection import PhoenixConnection
from repro.core.cursor import PhoenixCursor
from repro.core.driver_manager import PhoenixDriverManager
from repro.core.parallel import RecoveryOutcome, recover_all

__all__ = [
    "PhoenixDriverManager",
    "PhoenixConnection",
    "PhoenixCursor",
    "PhoenixConfig",
    "RecoveryOutcome",
    "recover_all",
]
