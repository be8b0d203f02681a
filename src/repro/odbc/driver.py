"""The native driver: the vendor client stub.

:class:`NativeDriver` knows how to reach one database server — through a
:class:`~repro.net.transport.Transport` whose channels carry the wire
(in-process or a real TCP socket) — and exposes the low-level connection
operations the driver manager builds statements on.  It performs no
recovery of any kind: a communication error breaks the connection and is
the application's problem — which is the baseline behaviour Phoenix fixes.
"""

from __future__ import annotations

from typing import Any

from repro.errors import (
    CommunicationError,
    InterfaceError,
    SessionLostError,
)
from repro.engine.results import StatementResult
from repro.net.metrics import NetworkMetrics
from repro.net.protocol import (
    BatchExecuteRequest,
    BatchExecuteResponse,
    CloseCursorRequest,
    ConnectRequest,
    ConnectResponse,
    DisconnectRequest,
    ExecuteRequest,
    FetchRequest,
    FetchResponse,
    Request,
    Response,
    TableSchemaRequest,
    TableSchemaResponse,
)
from repro.net.transport import ClientChannel, Transport
from repro.obs.tracer import get_tracer

__all__ = ["NativeDriver", "DriverConnection"]


def _send(
    channel: ClientChannel, request: Request, expected: type[Response] | tuple[type, ...]
) -> Response:
    """One round trip whose reply must be an ``expected``: a peer that
    answers with anything else is not speaking this protocol, so the
    channel is broken and the failure is a ``CommunicationError`` (a check
    that holds under ``python -O`` too)."""
    response = channel.send(request)
    if not isinstance(response, expected):
        channel.close()
        raise CommunicationError(
            f"protocol error: {type(response).__name__} answered a {type(request).__name__}"
        )
    return response


class NativeDriver:
    """Factory for driver connections to one server, over one transport."""

    def __init__(
        self,
        transport: Transport,
        *,
        metrics: NetworkMetrics | None = None,
    ):
        self.transport = transport
        #: shared metrics for every channel this driver opens
        self.metrics = metrics if metrics is not None else NetworkMetrics()

    def _open_channel(self) -> ClientChannel:
        return self.transport.open_channel(metrics=self.metrics)

    def connect(
        self,
        user: str = "app",
        options: dict[str, Any] | None = None,
        *,
        recipe: str = "",
        placeholders: list | None = None,
        reap: list[int] = (),
    ) -> "DriverConnection":
        """Open a session on a new channel; the server disconnects the
        ``reap`` sessions first and runs ``recipe`` (with ``placeholders``)
        in the new session before it replies — the reply is the
        connection's :attr:`~DriverConnection.opened`.

        A connect is also the liveness probe: a server that is down fails
        it, and one mid planned restart holds it on the engine mutex until
        the swapped-in engine answers.  The channel of a failed
        connect is closed."""
        with get_tracer().span("driver.connect", user=user) as span:
            channel = self._open_channel()
            request = ConnectRequest(
                user=user,
                options=dict(options or {}),
                sql=recipe,
                placeholders=list(placeholders or []),
                reap=list(reap),
            )
            try:
                response = _send(channel, request, ConnectResponse)
            except BaseException:
                channel.close()
                raise
            span.set(session_id=response.session_id)
            return DriverConnection(self, channel, response, user)

    def ping(self) -> ConnectResponse:
        """Is the server there?  A connect with no recipe, disconnected at
        once — the same question Phoenix recovery's connect answers, without
        keeping the session.  Raises as :meth:`connect` does."""
        connection = self.connect()
        connection.disconnect()
        return connection.opened

    def disconnect_session(self, session_id: int) -> None:
        """Disconnect a server session by id over a throwaway channel.

        The session-GC analog of :meth:`ping`: Phoenix uses it to reap a
        session it orphaned (the old connection object is gone or broken,
        but the server may still hold the session).  Raises whatever the
        wire raises — callers decide what is best-effort."""
        channel = self._open_channel()
        try:
            channel.send(DisconnectRequest(session_id=session_id))
        finally:
            channel.close()


class DriverConnection:
    """One live connection (channel + server session)."""

    def __init__(
        self, driver: NativeDriver, channel: ClientChannel, opened: ConnectResponse, user: str
    ):
        self.driver = driver
        self.channel = channel
        #: the connect's reply: the session, the recipe's result, the reaped
        self.opened = opened
        self.session_id = opened.session_id
        self.user = user
        self.closed = False

    # -- plumbing ---------------------------------------------------------------

    def _require_open(self) -> None:
        if self.closed:
            raise InterfaceError("connection is closed")

    @property
    def broken(self) -> bool:
        return self.channel.broken

    # -- operations ----------------------------------------------------------------

    def execute(
        self,
        sql: str,
        *,
        placeholders: list | None = None,
        cursor_type: str = "default",
        position: int = 0,
    ) -> StatementResult:
        self._require_open()
        request = ExecuteRequest(
            session_id=self.session_id,
            sql=sql,
            placeholders=list(placeholders or []),
            cursor_type=cursor_type,
            position=position,
        )
        return _send(self.channel, request, StatementResult)

    def execute_batch(self, sql: str, rows: list[list]) -> BatchExecuteResponse:
        """Run ``sql`` once per row of ``?`` values, in one round trip
        (wire batching).

        The server runs the rows in order under WAL group commit; a SQL
        error comes back *in-band* inside the response
        (``error``/``error_index`` with the successful prefix in
        ``results``) rather than raising, so the caller can account for the
        landed prefix before surfacing it.  Transport failures raise as usual.
        """
        self._require_open()
        request = BatchExecuteRequest(
            session_id=self.session_id, sql=sql, rows=[list(row) for row in rows]
        )
        return _send(self.channel, request, BatchExecuteResponse)

    def fetch(self, cursor_id: int, n: int) -> tuple[list[tuple], bool]:
        self._require_open()
        request = FetchRequest(session_id=self.session_id, cursor_id=cursor_id, n=n)
        response = _send(self.channel, request, FetchResponse)
        return response.rows, response.done

    def advance(self, sql: str, position: int) -> int:
        """Open a keyset server cursor over ``sql`` standing at row
        ``position``, in one request, and return its id: the paper's
        repositioning, "advancing through the result set on the server
        without passing tuples to the client"."""
        return self.execute(sql, cursor_type="keyset", position=position).cursor_id

    def table_schema(self, table: str) -> TableSchemaResponse:
        """Catalog lookup (the SQLPrimaryKeys/SQLColumns analog)."""
        self._require_open()
        request = TableSchemaRequest(session_id=self.session_id, table=table)
        return _send(self.channel, request, TableSchemaResponse)

    def close_cursor(self, cursor_id: int) -> None:
        self._require_open()
        self.channel.send(
            CloseCursorRequest(session_id=self.session_id, cursor_id=cursor_id)
        )

    def disconnect(self) -> bool:
        """Best-effort: a session that died in a crash is already gone,
        and close() is the one call that must never raise for that.

        Returns True when the server acknowledged the disconnect (or had
        already lost the session) — False means the request died in flight
        and the session may be orphaned on a surviving server."""
        if self.closed:
            return True
        acked = False
        try:
            if not self.channel.broken:
                self.channel.send(DisconnectRequest(session_id=self.session_id))
                acked = True
        except InterfaceError:
            raise
        except SessionLostError:
            acked = True  # already gone — nothing left to orphan
        except Exception:
            pass
        finally:
            self.channel.close()
            self.closed = True
        return acked
