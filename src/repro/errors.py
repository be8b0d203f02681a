"""Exception hierarchy for the repro package.

The layout follows PEP 249 (the Python DB-API) because the client-facing
driver (:mod:`repro.odbc`) exposes a DB-API-flavoured surface, and because
Phoenix/ODBC's whole point is which of these errors the *application* never
has to see.  Everything derives from :class:`Error` so callers can catch one
base class.
"""

from __future__ import annotations

__all__ = [
    "Warning",
    "Error",
    "InterfaceError",
    "DatabaseError",
    "DataError",
    "OperationalError",
    "IntegrityError",
    "InternalError",
    "ProgrammingError",
    "NotSupportedError",
    "SQLSyntaxError",
    "CatalogError",
    "TransactionError",
    "LockError",
    "DeadlockError",
    "CommunicationError",
    "TimeoutError",
    "ServerCrashedError",
    "SessionLostError",
    "RecoveryError",
    "TimeTravelError",
]


class Warning(Exception):  # noqa: A001 - DB-API mandated name
    """Important non-fatal condition (DB-API ``Warning``)."""


class Error(Exception):
    """Base class of every error raised by this package (DB-API ``Error``)."""


class InterfaceError(Error):
    """Error in the database *interface* rather than the database itself,
    e.g. using a closed connection handle."""


class DatabaseError(Error):
    """Base class for errors reported by the database engine."""


class DataError(DatabaseError):
    """Problem with the processed data (bad cast, value out of range)."""


class OperationalError(DatabaseError):
    """Error related to the database's operation, not the programmer:
    lost connections, server shutdown, resource limits."""


class IntegrityError(DatabaseError):
    """Constraint violation (duplicate primary key, NOT NULL violation)."""


class InternalError(DatabaseError):
    """The engine hit an inconsistent internal state; a bug if it happens."""


class ProgrammingError(DatabaseError):
    """Application-level misuse: bad SQL, unknown table, wrong arg count."""


class NotSupportedError(DatabaseError):
    """A valid-in-principle feature this engine does not implement."""


class SQLSyntaxError(ProgrammingError):
    """SQL text failed to lex or parse.

    Carries the offending position so tools can point at it.
    """

    def __init__(self, message: str, position: int = -1, line: int = -1):
        super().__init__(message)
        self.position = position
        self.line = line


class CatalogError(ProgrammingError):
    """Reference to a table/column/procedure that does not exist, or an
    attempt to create one that already does."""


class TransactionError(ProgrammingError):
    """Invalid transaction state transition (commit with no transaction,
    nested BEGIN, operating inside an aborted transaction).  A
    :class:`ProgrammingError` per DB-API: the application misused the
    transaction demarcation API."""


class LockError(OperationalError):
    """A lock could not be granted (deadlock or timeout)."""


class DeadlockError(LockError):
    """The waits-for graph closed a cycle and this transaction was chosen as
    the victim.  The victim's transaction has been *aborted* by the server
    (its locks are released so the survivors can proceed), which makes the
    statement safely retryable: Phoenix's interceptor replays it as a fresh
    transaction, exactly like a statement lost to a crash."""


class CommunicationError(OperationalError):
    """The wire between client and server failed: connection refused,
    connection dropped mid-request, reply never arrived.

    This is the error the native ODBC stack surfaces to applications on a
    server crash — and the one Phoenix/ODBC intercepts and hides.
    """


class TimeoutError(CommunicationError):  # noqa: A001 - intentional shadow
    """A request exceeded its timeout.  Phoenix treats this as a *potential*
    server failure to be confirmed by pinging (paper §3, crash recovery)."""


class ServerCrashedError(CommunicationError):
    """Raised inside the transport when the request's server has crashed and
    not yet been restarted."""


class SessionLostError(OperationalError):
    """The server is reachable again but the original session (and all its
    volatile state) is gone — the outcome of the temp-table proxy probe."""


class RecoveryError(Error):
    """Phoenix could not rebuild the session (e.g. materialized state missing
    after database recovery, or reconnect retries exhausted)."""


class TimeTravelError(OperationalError):
    """A point-in-time request (``AS OF`` / ``restore_to``) names a cut the
    log cannot reconstruct: the log ends before the cut's COMMIT frame (its
    tail is torn or was cut off), or no commit sits at the cut LSN.  The
    log is the whole history, so any moment it still holds is reachable
    (see docs/TIME_TRAVEL.md)."""
