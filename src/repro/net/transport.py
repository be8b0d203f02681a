"""Transport: the request/response channel between clients and the server.

:class:`ServerEndpoint` wraps a :class:`~repro.engine.DatabaseServer` and is
the *only* way clients reach it — every call serializes a request, consults
the fault injector, dispatches, and serializes a response.

:class:`ClientChannel` is one client connection.  Once a channel observes a
communication failure it is *broken* — further sends fail immediately, like
a closed socket — and the client must open a fresh channel (reconnect).
That matches what Phoenix has to deal with: the old ODBC connection is dead
even if the server is back.

The channel's byte round trip is pluggable: a :class:`Transport` opens
channels over some wire, and the channel delegates ``raw bytes -> raw
bytes`` to the wire object behind it.  Both wires enter the server through
:meth:`ServerEndpoint.submit`: :class:`InProcessTransport` is its own wire
(it submits the bytes and waits for the reply, same process), and
:class:`~repro.net.tcp.TcpTransport` is a real socket to a
:class:`~repro.net.tcp.TcpServer`, whose event loop submits them.
Everything above the wire — metrics, tracing, the broken-channel contract,
in-band SQL error rebuilding — is shared, so the Phoenix driver, the plain
ODBC stack, chaos traces, and the benches run unchanged over either
transport.
"""

from __future__ import annotations

import itertools
import threading
import time

from repro import errors
from repro.engine.results import StatementResult
from repro.engine.server import DatabaseServer
from repro.engine.storage import StorageFault
from repro.net.faults import FaultInjector, FaultKind
from repro.net.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.net.protocol import (
    BatchExecuteRequest,
    BatchExecuteResponse,
    CloseCursorRequest,
    ConnectRequest,
    ConnectResponse,
    DisconnectRequest,
    ErrorResponse,
    ExecuteRequest,
    FetchRequest,
    FetchResponse,
    OkResponse,
    Request,
    Response,
    TableSchemaRequest,
    TableSchemaResponse,
    decode_message,
    encode_message,
)

__all__ = ["ServerEndpoint", "ClientChannel", "Transport", "InProcessTransport"]

#: the mid-swap crash faults: where the kill lands, the planned swap it
#: lands in (its span), and that swap's rewrite step, which arg 1 lets run
#: first (arg 0 kills before it) — a planned restart's checkpoint, or a
#: restore *to now*, so every committed transaction survives and the
#: exactly-once oracle still applies
_MID_SWAP = {
    FaultKind.CRASH_MID_DRAIN: (
        "mid-drain", "server.swap", lambda server: server.database.checkpoint()
    ),
    FaultKind.CRASH_MID_RESTORE: (
        "mid-restore", "server.restore", lambda server: server.restore_storage_to(None)
    ),
}


class ServerEndpoint:
    """The server side of the wire: dispatch + fault injection.

    Requests are routed through the server's
    :class:`~repro.engine.dispatch.SessionDispatcher`: one session's
    requests run strictly in order, while different sessions' requests run
    on worker threads and interleave inside the engine.

    :attr:`latency` simulates in-process wire transit: the
    :class:`InProcessTransport` *sleeps* on the client's thread (half
    outbound, half for the reply).  It starts at zero — unit tests and the
    chaos explorer stay instant — and the concurrency bench sets it, which
    is exactly where concurrent serving pays: while one client's request is
    in transit, the server serves everybody else.
    """

    def __init__(self, server: DatabaseServer):
        self.server = server
        self.faults = FaultInjector()
        #: simulated one-way-and-back wire transit per request, seconds
        self.latency = 0.0

    def restart_server(self):
        """Restart the crashed server (``DatabaseServer.restart``)."""
        return self.server.restart()

    # -- the wire ------------------------------------------------------------

    def submit(
        self,
        raw_request: bytes,
        callback,
        *,
        frame_attrs: dict | None = None,
    ) -> None:
        """Serve one serialized request without blocking the caller: the
        one way into the server, for every transport.

        The request is enqueued and ``callback(raw_response, exc)`` is
        invoked on the dispatch worker once it has run (check ``exc``
        first).  ``exc`` carries :class:`~repro.errors.CommunicationError`
        subclasses for transport-level failures (crash, hang, drop) —
        exactly what a real socket layer would surface; SQL-level errors
        travel *in-band* as :class:`ErrorResponse`.  Decode failures invoke
        the callback synchronously on the caller.

        ``frame_attrs`` (the TCP server passes peer + byte counts) opens a
        ``net.frame`` span around the server-side body so the socket tier
        shows up in traces and the ``net.frame`` latency histogram.
        Simulated ``latency`` is *not* applied here: a real socket has real
        transit time.
        """
        try:
            request, key, corr = self._prepare(raw_request)
        except Exception as exc:
            callback(None, exc)
            return

        if frame_attrs is None:
            fn = lambda: self._serve(request, corr)  # noqa: E731
        else:
            def fn():
                with get_tracer().span(
                    "net.frame",
                    corr=corr,
                    request=type(request).__name__,
                    **frame_attrs,
                ) as span:
                    raw_response = self._serve(request, corr)
                    span.set(bytes_out=len(raw_response))
                    return raw_response

        try:
            self.server.dispatcher.submit(key, fn, callback)
        except RuntimeError as exc:  # dispatcher closed under us
            callback(None, errors.ServerCrashedError(f"dispatcher rejected request: {exc}"))

    def _prepare(self, raw_request: bytes):
        """Decode + session key + caller correlation."""
        request = decode_message(raw_request)
        if not isinstance(request, Request):
            raise errors.CommunicationError(
                f"protocol error: {type(request).__name__} is not a request"
            )
        # session-scoped requests serialize per session; connects carry no
        # session and dispatch independently (unique key)
        key = object() if isinstance(request, ConnectRequest) else request.session_id
        # correlation crosses the thread hop explicitly: the worker's span
        # stack is its own, so inheritance alone would drop the session chain
        caller_span = get_tracer().current
        corr = caller_span.corr if caller_span is not None else None
        return request, key, corr

    def _serve(self, request: Request, corr: str | None = None) -> bytes:
        """The server-side body of one request (runs on a dispatch worker)."""
        tracer = get_tracer()
        with tracer.span("server.dispatch", corr=corr, request=type(request).__name__):
            if not self.server.up:
                raise errors.ServerCrashedError("connection refused: server is down")

            fault, fault_arg = self.faults.next_fault(request)
            if fault is not None:
                tracer.event("fault.fired", fault=fault.value)
            if fault is FaultKind.CRASH_BEFORE_EXECUTE:
                self.server.crash()
                raise errors.CommunicationError("connection reset by peer (server crashed)")
            if fault is FaultKind.HANG:
                raise errors.TimeoutError("request timed out (server not responding)")
            if fault is FaultKind.DROP_CONNECTION:
                raise errors.CommunicationError("connection reset by peer (network glitch)")
            if fault is FaultKind.CRASH_MID_BATCH:
                # the server dies *between* a batch's sub-statements: the
                # fault's arg says how many executed before the kill (their
                # commits were deferred for the group force, so the crash
                # loses all of them).  On a non-batch request this is just
                # CRASH_BEFORE_EXECUTE.
                if isinstance(request, BatchExecuteRequest) and request.rows:
                    executed = len(request.rows) // 2 if fault_arg is None else fault_arg
                    executed = max(0, min(executed, len(request.rows)))
                    try:
                        self.server.execute_batch(
                            request.session_id, request.sql, request.rows, stop_after=executed
                        )
                    except (errors.Error, StorageFault):
                        pass  # the kill swallows whatever the prefix raised
                self._kill()
                raise errors.CommunicationError(
                    "connection reset by peer (server crashed mid-batch)"
                )
            if fault in _MID_SWAP:
                # A planned restart or a restore_to begins while this
                # request is already on a worker, and the process is killed
                # inside the swap, after it ended the sessions: arg 0 before
                # the swap's rewrite step, arg 1 after it, before the fresh
                # engine boots.  Either way the swap degrades into the
                # unplanned crash path.
                where, span, rewrite = _MID_SWAP[fault]

                def killed() -> None:
                    if fault_arg:
                        rewrite(self.server)
                    self.server.crash()
                    raise errors.ServerCrashedError(f"killed {where}")

                try:
                    self.server._planned_swap(span, killed)
                except (errors.Error, StorageFault):
                    pass  # the kill, or a device fault that crashed first
                self._kill()
                raise errors.CommunicationError(
                    f"connection reset by peer (server crashed {where})"
                )
            if fault is FaultKind.TORN_WAL_TAIL:
                # armed on the device; fires at this request's first log append
                # (or a later request's, if this one never appends)
                self.server.storage.inject_append_fault("torn")
            if fault is FaultKind.FORCE_FAIL:
                self.server.storage.inject_append_fault("fail")

            try:
                response = self._dispatch(request)
            except StorageFault as exc:
                # the log device failed under the server, and the server
                # crashed itself at the failed write (the engine is
                # fail-stop): a process kill, not an SQL error — nothing
                # in-band can describe it
                raise errors.CommunicationError(
                    f"connection reset by peer (server crashed: {exc})"
                ) from exc
            except errors.Error as exc:
                response = ErrorResponse(error_type=type(exc).__name__, message=str(exc))

            if fault is FaultKind.CRASH_AFTER_EXECUTE:
                # The work (commits and all) happened; the reply is lost.
                self.server.crash()
                raise errors.CommunicationError(
                    "connection reset by peer (server crashed before replying)"
                )
            return encode_message(response)

    def _kill(self) -> None:
        """The process kill of a fault that let some work run first — unless
        that work met a device fault, which already crashed the server."""
        if self.server.up:
            self.server.crash()

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, request: Request) -> Response | StatementResult:
        server = self.server
        if isinstance(request, ConnectRequest):
            session_id, result, reaped = server.serve_connect(
                request.user, request.options, request.reap, request.sql, request.placeholders
            )
            return ConnectResponse(session_id=session_id, result=result, reaped=reaped)
        if isinstance(request, ExecuteRequest):
            return server.execute(
                request.session_id,
                request.sql,
                placeholders=request.placeholders,
                cursor_type=request.cursor_type,
                position=request.position,
            )
        if isinstance(request, BatchExecuteRequest):
            with get_tracer().span("wire.batch", statements=len(request.rows)) as span:
                results, error, error_index = server.execute_batch(
                    request.session_id, request.sql, request.rows
                )
                span.set(executed=len(results), error_index=error_index)
            return BatchExecuteResponse(
                results=results,
                error=(
                    ErrorResponse(error_type=type(error).__name__, message=str(error))
                    if error is not None
                    else None
                ),
                error_index=error_index,
            )
        if isinstance(request, FetchRequest):
            rows, done = server.fetch(request.session_id, request.cursor_id, request.n)
            return FetchResponse(rows=rows, done=done)
        if isinstance(request, CloseCursorRequest):
            server.close_cursor(request.session_id, request.cursor_id)
            return OkResponse(message="cursor closed")
        if isinstance(request, DisconnectRequest):
            server.disconnect(request.session_id)
            return OkResponse(message="bye")
        if isinstance(request, TableSchemaRequest):
            schema = server.table_schema(request.session_id, request.table)
            return TableSchemaResponse(
                columns=list(schema.columns), primary_key=schema.primary_key
            )
        raise errors.InterfaceError(f"unknown request type {type(request).__name__}")


_channel_ids = itertools.count(1)


class Transport:
    """Client-side wire factory: where channels come from.

    One transport represents one way of reaching one server; every channel
    it opens shares that destination.  Subclasses implement
    :meth:`open_channel`; the returned :class:`ClientChannel` owns all
    client-side bookkeeping (metrics, tracing, the broken flag) while the
    transport-specific *wire* object behind it does the raw byte round
    trip.
    """

    #: short name for logs/benches ("inprocess", "tcp")
    name = "abstract"

    def open_channel(self, metrics: NetworkMetrics | None = None) -> "ClientChannel":
        raise NotImplementedError


class InProcessTransport(Transport):
    """The same-process wire: the channel's bytes go straight to
    :meth:`ServerEndpoint.submit`, and the calling thread waits for the
    reply — the TCP path with the socket taken out."""

    name = "inprocess"

    def __init__(self, endpoint: ServerEndpoint):
        self.endpoint = endpoint

    def open_channel(self, metrics: NetworkMetrics | None = None) -> "ClientChannel":
        return ClientChannel(self, metrics=metrics)

    def roundtrip(self, raw_request: bytes) -> bytes:
        replied = threading.Event()
        reply: list = []

        def deliver(raw_response, exc) -> None:
            reply.append((raw_response, exc))
            replied.set()

        latency = self.endpoint.latency
        if latency:
            time.sleep(latency / 2)
        try:
            self.endpoint.submit(raw_request, deliver)
            replied.wait()
        finally:
            if latency:
                time.sleep(latency / 2)
        raw_response, exc = reply.pop()
        if exc is not None:
            raise exc
        return raw_response

    def close(self) -> None:
        """A channel's close: no socket to release."""


class ClientChannel:
    """One client connection over some wire.

    Not a session by itself — the session is created by sending a
    ``ConnectRequest`` — but the channel mirrors a socket's lifecycle:
    usable until the first communication error, then permanently broken.

    ``wire`` is any object with ``roundtrip(bytes) -> bytes`` and
    ``close()``.
    """

    def __init__(
        self,
        wire,
        metrics: NetworkMetrics | None = None,
    ):
        self.channel_id = next(_channel_ids)
        self.wire = wire
        self.metrics = metrics if metrics is not None else NetworkMetrics()
        self.broken = False

    def send(self, request: Request) -> Response | StatementResult:
        """One round trip.  Raises CommunicationError subclasses on
        transport failure and re-raises SQL errors shipped in-band."""
        if self.broken:
            raise errors.CommunicationError("channel is broken (previous failure)")
        raw = encode_message(request)
        request_type = type(request).__name__
        if isinstance(request, BatchExecuteRequest):
            # counted per send attempt: the trip happens whether or not the
            # reply makes it back
            self.metrics.record_batch(len(request.rows))
        with get_tracer().span(
            "wire.send", request=request_type, channel=self.channel_id
        ) as span:
            try:
                raw_response = self.wire.roundtrip(raw)
                response = decode_message(raw_response)
            except errors.TimeoutError:
                # a client-side timeout abandons the request but not the socket:
                # the server may just be slow (Phoenix probes to find out)
                self.metrics.record_error(request_type, len(raw))
                raise
            except errors.CommunicationError:
                self.broken = True
                self.metrics.record_error(request_type, len(raw))
                raise
            self.metrics.record(request_type, len(raw), len(raw_response))
            span.set(bytes_out=len(raw), bytes_in=len(raw_response))
            if isinstance(response, ErrorResponse):
                raise _rebuild_error(response)
            return response

    def close(self) -> None:
        self.broken = True
        self.wire.close()


def _rebuild_error(response: ErrorResponse) -> errors.Error:
    """Re-raise a server error as its original exception class."""
    error_class = getattr(errors, response.error_type, errors.DatabaseError)
    if not (isinstance(error_class, type) and issubclass(error_class, errors.Error)):
        error_class = errors.DatabaseError
    return error_class(response.message)
