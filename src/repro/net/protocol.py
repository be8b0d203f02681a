"""Wire protocol: request/response message types and their serialization.

Messages cross the "wire" as pickled bytes — not because pickle is a great
wire format, but because serializing at all keeps the boundary honest: the
client cannot share live objects with the server, and the metrics layer can
count real message sizes.

Every request carries the session id it operates on (like a TDS connection
carries its login context); ``ConnectRequest`` is the exception.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any

from repro.engine.schema import Column

__all__ = [
    "Message",
    "Request",
    "Response",
    "ConnectRequest",
    "ExecuteRequest",
    "BatchExecuteRequest",
    "BatchExecuteResponse",
    "FetchRequest",
    "AdvanceRequest",
    "CloseCursorRequest",
    "DisconnectRequest",
    "PingRequest",
    "TableSchemaRequest",
    "TableSchemaResponse",
    "ConnectResponse",
    "ResultResponse",
    "FetchResponse",
    "OkResponse",
    "ErrorResponse",
    "PongResponse",
    "RestartingResponse",
    "encode_message",
    "decode_message",
]


@dataclass
class Message:
    """Base for everything that crosses the wire."""


@dataclass
class Request(Message):
    session_id: int = 0


@dataclass
class Response(Message):
    pass


# ---- requests ---------------------------------------------------------------


@dataclass
class ConnectRequest(Request):
    user: str = "app"
    options: dict[str, Any] = field(default_factory=dict)


@dataclass
class ExecuteRequest(Request):
    sql: str = ""
    placeholders: list = field(default_factory=list)
    cursor_type: str = "default"


@dataclass
class BatchExecuteRequest(Request):
    """One SQL text run once per row of values, in one round trip (wire
    batching): an executemany on the wire.

    Each row is an independent execution of ``sql`` (for Phoenix: the DML
    wrapper, the row ending in its own status-table seq); the server runs
    them in order as a unit under WAL group commit — one device force
    covers every sub-statement's commit (see
    :meth:`DatabaseServer.execute_batch`).
    """

    sql: str = ""
    rows: list[list] = field(default_factory=list)


@dataclass
class FetchRequest(Request):
    cursor_id: int = 0
    n: int = 1


@dataclass
class AdvanceRequest(Request):
    """Server-side cursor reposition — no rows travel back."""

    cursor_id: int = 0
    position: int = 0


@dataclass
class CloseCursorRequest(Request):
    cursor_id: int = 0


@dataclass
class DisconnectRequest(Request):
    pass


@dataclass
class PingRequest(Request):
    """Liveness probe (Phoenix recovery sends it on a throwaway channel)."""


@dataclass
class TableSchemaRequest(Request):
    """Catalog lookup — the SQLPrimaryKeys/SQLColumns analog real ODBC
    drivers expose.  Phoenix needs the primary key of a cursor's base table
    to persist keyset/dynamic cursor state."""

    table: str = ""


# ---- responses ------------------------------------------------------------------


@dataclass
class ConnectResponse(Response):
    session_id: int = 0
    server_epoch: int = 0


@dataclass
class ResultResponse(Response):
    """Outcome of an ExecuteRequest.

    ``kind`` mirrors :class:`~repro.engine.results.StatementResult`:
    ``rows`` (with either inline ``rows`` for a default result set or a
    ``cursor_id`` for server cursors), ``rowcount``, or ``ok``.
    """

    kind: str = "ok"
    columns: list[Column] = field(default_factory=list)
    rows: list[tuple] = field(default_factory=list)
    rowcount: int = 0
    message: str = ""
    cursor_id: int | None = None
    effective_cursor_type: str = "default"
    #: affected-row counts of every DML statement in the batch, in order —
    #: how a transaction-wrapped batch still reports the inner statement's
    #: rowcount when the final statement is the COMMIT.
    batch_rowcounts: list[int] = field(default_factory=list)
    #: the query's own column description for the batch's last
    #: ``SELECT ... INTO`` — the table it created stores uniquified names, so
    #: reading it back (``columns``) cannot say what the query called them.
    into_columns: list[Column] = field(default_factory=list)


@dataclass
class FetchResponse(Response):
    rows: list[tuple] = field(default_factory=list)
    done: bool = False


@dataclass
class OkResponse(Response):
    message: str = ""


@dataclass
class ErrorResponse(Response):
    """A server-side error, shipped back by class name + message and
    re-raised client-side as the matching exception type."""

    error_type: str = "DatabaseError"
    message: str = ""


@dataclass
class BatchExecuteResponse(Response):
    """Outcome of a :class:`BatchExecuteRequest`.

    ``results`` holds one :class:`ResultResponse` per executed sub-batch,
    in request order.  On a SQL error, ``results`` is the successful prefix
    and ``error``/``error_index`` describe the failing sub-batch; the
    suffix after it was not executed.  Transport-level failures never reach
    this message — they raise on the wire like any other request.  Every
    result here is covered by the batch's group force (the server releases
    no reply before the force that covers it lands).
    """

    results: list[ResultResponse] = field(default_factory=list)
    error: ErrorResponse | None = None
    error_index: int = -1


@dataclass
class PongResponse(Response):
    server_epoch: int = 0
    up_sessions: int = 0


@dataclass
class RestartingResponse(Response):
    """Ping reply while a *planned* restart is in progress.

    The server is alive (this reply proves it) but paused: ``state`` is the
    lifecycle phase (``draining``/``swapping``) and ``eta_seconds`` the
    advertised remaining pause, so the client waits politely at a flat
    interval instead of applying crash-tuned exponential backoff.
    """

    state: str = "draining"
    eta_seconds: float = 0.0
    server_epoch: int = 0


@dataclass
class TableSchemaResponse(Response):
    columns: list[Column] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()


def encode_message(message: Message) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


def decode_message(raw: bytes) -> Message:
    return pickle.loads(raw)
