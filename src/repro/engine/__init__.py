"""The database engine substrate.

A from-scratch single-node relational engine with the specific properties
Phoenix/ODBC depends on (see DESIGN.md §2):

* committed data survives a crash — write-ahead log + restart recovery over
  an explicit stable-storage boundary (:mod:`repro.engine.wal`,
  :mod:`repro.engine.recovery`, :mod:`repro.engine.storage`);
* volatile session state (temp tables, open cursors, undelivered results)
  dies with the server (:mod:`repro.engine.session`);
* server cursors — default result sets, keyset cursors, dynamic cursors
  (:mod:`repro.engine.cursors`);
* stored procedures (:mod:`repro.engine.procedures`).

:class:`repro.engine.server.DatabaseServer` is the top-level object, with
``crash()`` / ``restart()`` methods the fault-injection layer drives.
"""

from repro.engine.schema import Column, TableSchema
from repro.engine.server import DatabaseServer, DrainStats
from repro.engine.values import SqlType

__all__ = [
    "DatabaseServer",
    "DrainStats",
    "TableSchema",
    "Column",
    "SqlType",
]
