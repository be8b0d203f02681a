"""Wire protocol: request/response message types and their serialization.

Messages cross the "wire" as pickled bytes — not because pickle is a great
wire format, but because serializing at all keeps the boundary honest: the
client cannot share live objects with the server, and the metrics layer can
count real message sizes.  Decoding admits only the classes a message is
made of (the ``Message`` subclasses defined here, the engine's
``StatementResult`` with its ``Column`` and ``SqlType``, and
``datetime.date`` values): any other class or callable named in the bytes is
refused before it is looked up, so a peer cannot make the decoder run code.
A statement's reply is the engine's ``StatementResult`` itself.

Every request carries the session id it operates on (like a TDS connection
carries its login context); ``ConnectRequest`` is the exception.  A field
added to replace a request kind names the kind it retired: a connect is the
liveness probe and carries the session recipe (``PingRequest`` and
``PongResponse`` went), and an execute can open a server cursor already
standing at a row (``AdvanceRequest`` went).
"""

from __future__ import annotations

import datetime
import io
import pickle
from dataclasses import dataclass, field
from typing import Any

from repro import errors
from repro.engine.results import StatementResult
from repro.engine.schema import Column
from repro.engine.values import SqlType

__all__ = [
    "Message",
    "Request",
    "Response",
    "ConnectRequest",
    "ExecuteRequest",
    "BatchExecuteRequest",
    "BatchExecuteResponse",
    "FetchRequest",
    "CloseCursorRequest",
    "DisconnectRequest",
    "TableSchemaRequest",
    "TableSchemaResponse",
    "ConnectResponse",
    "FetchResponse",
    "OkResponse",
    "ErrorResponse",
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
    """Open a session, and run the *session recipe* in it before replying.

    A server that answers a connect is alive, so the connect is also the
    liveness probe (it retired ``PingRequest``); mid planned restart it
    waits for the engine mutex like any request, and the swapped-in engine
    answers it.  Reap, session open and recipe run under one mutex hold, so
    a swap never lands between them.  The recipe is what the new
    session needs before its first statement: ``reap`` lists sessions to
    disconnect first (a client's abandoned ones — their locks go before
    anything runs), then ``sql`` runs, with ``placeholders``, in the new
    session; its reply is :attr:`ConnectResponse.result`.  A SQL error in
    the recipe disconnects the new session and comes back in-band.
    """

    user: str = "app"
    options: dict[str, Any] = field(default_factory=dict)
    #: the recipe — ``sql``, ``placeholders`` and ``reap`` came with the
    #: connect becoming the ping (they retired ``PingRequest``)
    sql: str = ""
    placeholders: list = field(default_factory=list)
    reap: list[int] = field(default_factory=list)


@dataclass
class ExecuteRequest(Request):
    sql: str = ""
    placeholders: list = field(default_factory=list)
    cursor_type: str = "default"
    #: a server cursor opened by this request stands at this row — the
    #: next fetch starts there and no row before it crosses the wire (it
    #: retired ``AdvanceRequest``)
    position: int = 0


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
class CloseCursorRequest(Request):
    cursor_id: int = 0


@dataclass
class DisconnectRequest(Request):
    pass


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
    #: the recipe's reply (its last query's rows), None without a recipe;
    #: with ``reaped`` it retired ``PongResponse``
    result: StatementResult | None = None
    #: the ``reap`` ids that named a live session, now disconnected
    reaped: list[int] = field(default_factory=list)


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

    ``results`` holds one :class:`StatementResult` per executed sub-batch,
    in request order.  On a SQL error, ``results`` is the successful prefix
    and ``error``/``error_index`` describe the failing sub-batch; the
    suffix after it was not executed.  Transport-level failures never reach
    this message — they raise on the wire like any other request.  Every
    result here is covered by the batch's group force (the server releases
    no reply before the force that covers it lands).
    """

    results: list[StatementResult] = field(default_factory=list)
    error: ErrorResponse | None = None
    error_index: int = -1


@dataclass
class TableSchemaResponse(Response):
    columns: list[Column] = field(default_factory=list)
    primary_key: tuple[str, ...] = ()


def encode_message(message: Message | StatementResult) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


#: (module, name) -> class, for every class a decoded message may name
_WIRE_CLASSES = {
    (cls.__module__, cls.__qualname__): cls
    for cls in [
        *(v for v in list(globals().values()) if isinstance(v, type) and issubclass(v, Message)),
        StatementResult,
        Column,
        SqlType,
        datetime.date,
    ]
}


class _WireUnpickler(pickle.Unpickler):
    def find_class(self, module: str, name: str) -> type:
        try:
            return _WIRE_CLASSES[module, name]
        except KeyError:
            raise pickle.UnpicklingError(f"{module}.{name} may not cross the wire") from None


def decode_message(raw: bytes) -> Message | StatementResult:
    """Decode one message; bytes that name any class outside the protocol,
    or that are not a message at all, raise ``CommunicationError``."""
    try:
        message = _WireUnpickler(io.BytesIO(raw)).load()
    except Exception as exc:
        raise errors.CommunicationError(f"protocol error: {exc}") from None
    if not isinstance(message, (Message, StatementResult)):
        raise errors.CommunicationError(
            f"protocol error: {type(message).__name__} is not a message"
        )
    return message
