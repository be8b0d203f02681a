"""The native driver: the vendor client stub.

:class:`NativeDriver` knows how to reach one database server — through a
:class:`~repro.net.transport.Transport` whose channels carry the wire
(in-process endpoint call or a real TCP socket; a bare
:class:`~repro.net.transport.ServerEndpoint` is accepted and wrapped for
the historical constructor shape) — and exposes the low-level connection
operations the driver manager builds statements on.  It performs no
recovery of any kind: a communication error breaks the connection and is
the application's problem — which is the baseline behaviour Phoenix fixes.
"""

from __future__ import annotations

from typing import Any

from repro.errors import InterfaceError, ServerRestartingError, SessionLostError
from repro.net.metrics import NetworkMetrics
from repro.net.protocol import (
    AdvanceRequest,
    BatchExecuteRequest,
    BatchExecuteResponse,
    CloseCursorRequest,
    ConnectRequest,
    DisconnectRequest,
    ExecuteRequest,
    FetchRequest,
    PingRequest,
    PongResponse,
    RestartingResponse,
    ResultResponse,
    TableSchemaRequest,
    TableSchemaResponse,
)
from repro.net.transport import (
    ClientChannel,
    InProcessTransport,
    ServerEndpoint,
    Transport,
)
from repro.obs.tracer import get_tracer

__all__ = ["NativeDriver", "DriverConnection"]


class NativeDriver:
    """Factory for driver connections to one server, over one transport."""

    def __init__(
        self,
        transport: Transport | ServerEndpoint,
        *,
        metrics: NetworkMetrics | None = None,
    ):
        if isinstance(transport, ServerEndpoint):
            transport = InProcessTransport(transport)
        self.transport = transport
        #: the endpoint behind an in-process transport; ``None`` over TCP
        #: (kept because tests and tools reach the fault injector this way)
        self.endpoint = getattr(transport, "endpoint", None)
        #: shared metrics for every channel this driver opens
        self.metrics = metrics if metrics is not None else NetworkMetrics()

    def _open_channel(self) -> ClientChannel:
        return self.transport.open_channel(metrics=self.metrics)

    def connect(self, user: str = "app", options: dict[str, Any] | None = None) -> "DriverConnection":
        with get_tracer().span("driver.connect", user=user) as span:
            channel = self._open_channel()
            response = channel.send(ConnectRequest(user=user, options=dict(options or {})))
            span.set(session_id=response.session_id)
            return DriverConnection(self, channel, response.session_id, user)

    def ping(self) -> PongResponse:
        """Liveness probe on a throwaway channel (so a dead server does not
        break any long-lived connection state).

        A server mid-planned-restart answers with
        :class:`~repro.net.protocol.RestartingResponse`; that surfaces as
        :class:`~repro.errors.ServerRestartingError` carrying the advertised
        state and remaining pause, so the caller's backoff can distinguish
        a polite wait from a crash."""
        channel = self._open_channel()
        try:
            response = channel.send(PingRequest())
            if isinstance(response, RestartingResponse):
                raise ServerRestartingError(
                    f"server restarting ({response.state}), "
                    f"expected back in {response.eta_seconds:.3f}s",
                    state=response.state,
                    eta_seconds=response.eta_seconds,
                )
            assert isinstance(response, PongResponse)
            return response
        finally:
            channel.close()

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

    def __init__(self, driver: NativeDriver, channel: ClientChannel, session_id: int, user: str):
        self.driver = driver
        self.channel = channel
        self.session_id = session_id
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
    ) -> ResultResponse:
        self._require_open()
        response = self.channel.send(
            ExecuteRequest(
                session_id=self.session_id,
                sql=sql,
                placeholders=list(placeholders or []),
                cursor_type=cursor_type,
            )
        )
        assert isinstance(response, ResultResponse)
        return response

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
        response = self.channel.send(
            BatchExecuteRequest(
                session_id=self.session_id, sql=sql, rows=[list(row) for row in rows]
            )
        )
        assert isinstance(response, BatchExecuteResponse)
        return response

    def fetch(self, cursor_id: int, n: int) -> tuple[list[tuple], bool]:
        self._require_open()
        response = self.channel.send(
            FetchRequest(session_id=self.session_id, cursor_id=cursor_id, n=n)
        )
        return response.rows, response.done

    def advance(self, cursor_id: int, position: int) -> None:
        self._require_open()
        self.channel.send(
            AdvanceRequest(
                session_id=self.session_id, cursor_id=cursor_id, position=position
            )
        )

    def table_schema(self, table: str) -> TableSchemaResponse:
        """Catalog lookup (the SQLPrimaryKeys/SQLColumns analog)."""
        self._require_open()
        response = self.channel.send(
            TableSchemaRequest(session_id=self.session_id, table=table)
        )
        assert isinstance(response, TableSchemaResponse)
        return response

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
