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
bytes`` to the wire object behind it.  :class:`InProcessTransport` is the
direct ``endpoint.handle`` call (zero-copy, same process);
:class:`~repro.net.tcp.TcpTransport` is a real socket to a
:class:`~repro.net.tcp.TcpServer`.  Everything above the wire — metrics,
tracing, the broken-channel contract, in-band SQL error rebuilding — is
shared, so the Phoenix driver, the plain ODBC stack, chaos traces, and the
benches run unchanged over either transport.
"""

from __future__ import annotations

import itertools
import time

from repro import errors
from repro.engine.server import DatabaseServer
from repro.engine.storage import StorageFault
from repro.net.faults import FaultInjector, FaultKind
from repro.net.metrics import NetworkMetrics
from repro.obs.tracer import get_tracer
from repro.net.protocol import (
    AdvanceRequest,
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
    PingRequest,
    PongResponse,
    Request,
    Response,
    RestartingResponse,
    ResultResponse,
    TableSchemaRequest,
    TableSchemaResponse,
    decode_message,
    encode_message,
)

__all__ = ["ServerEndpoint", "ClientChannel", "Transport", "InProcessTransport"]


class ServerEndpoint:
    """The server side of the wire: dispatch + fault injection.

    Requests are routed through the server's
    :class:`~repro.engine.dispatch.SessionDispatcher`: one session's
    requests run strictly in order, while different sessions' requests run
    on worker threads and interleave inside the engine.  The calling client
    thread blocks for its reply — the wire keeps its synchronous
    request/response shape, and N concurrent clients simply call in from N
    threads.

    :attr:`latency` simulates wire transit by *sleeping* on the client's
    thread (half outbound, half for the reply).  It starts at zero — unit
    tests and the chaos explorer stay instant — and the concurrency bench
    sets it, which is exactly where concurrent serving pays: while one
    client's request is in transit, the server serves everybody else.
    """

    def __init__(self, server: DatabaseServer):
        self.server = server
        self.faults = FaultInjector()
        #: simulated one-way-and-back wire transit per request, seconds
        self.latency = 0.0
        #: bumped every restart so clients can see "same server, new life"
        self.epoch = 0

    def restart_server(self):
        """Restart the crashed server and bump the epoch."""
        report = self.server.restart()
        self.epoch += 1
        return report

    def drain_and_restart(self, policy=None):
        """Planned restart (drain + engine swap) and bump the epoch."""
        report = self.server.drain_and_restart(policy)
        self.epoch += 1
        return report

    def restore_to(self, ts=None, policy=None):
        """Restore the database to its state as of ``ts`` (drain + storage
        rewrite + fresh boot; see ``DatabaseServer.restore_to``) and bump
        the epoch — to clients this is a planned restart they ride through."""
        report = self.server.restore_to(ts, policy=policy)
        self.epoch += 1
        return report

    # -- the wire ------------------------------------------------------------

    def handle(self, raw_request: bytes) -> bytes:
        """Process one serialized request; returns the serialized response.

        Raises :class:`~repro.errors.CommunicationError` subclasses for
        transport-level failures (crash, hang, drop) — exactly what a real
        socket layer would surface.  SQL-level errors travel *in-band* as
        :class:`ErrorResponse`.
        """
        request, key, corr = self._prepare(raw_request)
        if self.latency:
            time.sleep(self.latency / 2)
        try:
            bypass = self._restarting_bypass(request)
            if bypass is not None:
                return bypass
            return self.server.dispatcher.run(key, lambda: self._serve(request, corr))
        finally:
            if self.latency:
                time.sleep(self.latency / 2)

    def submit(
        self,
        raw_request: bytes,
        callback,
        *,
        frame_attrs: dict | None = None,
    ) -> None:
        """Non-blocking :meth:`handle` for the asyncio serving tier.

        The TCP front end's event loop must never park in the dispatcher,
        so the request is enqueued and ``callback(raw_response, exc)`` is
        invoked on the dispatch worker once it has run (check ``exc``
        first; it carries the CommunicationError subclasses that
        :meth:`handle` would raise).  The planned-restart ping bypass and
        decode failures invoke the callback synchronously on the caller.

        ``frame_attrs`` (the TCP server passes peer + byte counts) opens a
        ``net.frame`` span around the server-side body so the socket tier
        shows up in traces and the ``net.frame`` latency histogram.
        Simulated ``latency`` is *not* applied here: a real socket has real
        transit time.
        """
        try:
            request, key, corr = self._prepare(raw_request)
            bypass = self._restarting_bypass(request)
        except Exception as exc:
            callback(None, exc)
            return
        if bypass is not None:
            callback(bypass, None)
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
        """Decode + session key + caller correlation — shared by
        :meth:`handle` and :meth:`submit`."""
        request = decode_message(raw_request)
        assert isinstance(request, Request)
        # session-scoped requests serialize per session; connects and pings
        # carry no session and dispatch independently (unique key)
        key = getattr(request, "session_id", None)
        if key is None:
            key = object()
        # correlation crosses the thread hop explicitly: the worker's span
        # stack is its own, so inheritance alone would drop the session chain
        caller_span = get_tracer().current
        corr = caller_span.corr if caller_span is not None else None
        return request, key, corr

    def _restarting_bypass(self, request: Request) -> bytes | None:
        # Pings bypass the dispatcher while a *planned* restart is in
        # progress: parked behind the drain barrier they could tell the
        # client nothing until the swap is over — answered here, they
        # advertise RESTARTING + the expected remaining pause, which is
        # what lets the driver back off politely instead of treating
        # the pause as a crash.
        if isinstance(request, PingRequest) and self.server.up:
            state = self.server.lifecycle
            if state != "running":
                return encode_message(
                    RestartingResponse(
                        state=state,
                        eta_seconds=self.server.restart_eta_seconds(),
                        server_epoch=self.epoch,
                    )
                )
        return None

    def _serve(self, request: Request, corr: str | None = None) -> bytes:
        """The server-side body of one request (runs on a dispatch worker)."""
        tracer = get_tracer()
        with tracer.span("server.dispatch", corr=corr, request=type(request).__name__):
            if not self.server.up:
                raise errors.ServerCrashedError("connection refused: server is down")

            fault, fault_arg = self.faults.next_fault_with_arg(request)
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
                self.server.crash()
                raise errors.CommunicationError(
                    "connection reset by peer (server crashed mid-batch)"
                )
            if fault is FaultKind.CRASH_MID_DRAIN:
                # A planned restart begins while this request is already on
                # a worker, and the process is killed inside it: arg 0 dies
                # in the drain window (before the checkpoint), arg 1 during
                # the swap (after the checkpoint, before the fresh engine
                # boots).  Either way the planned restart degrades into the
                # unplanned crash path — crash() lifts the drain barrier so
                # parked requests observe the dead server and recover.
                try:
                    self.server.begin_drain()
                except errors.OperationalError:
                    pass  # already draining/down — the kill below still lands
                if fault_arg:
                    try:
                        self.server.checkpoint()
                    except errors.Error:
                        pass
                self.server.crash()
                raise errors.CommunicationError(
                    "connection reset by peer (server crashed mid-drain)"
                )
            if fault is FaultKind.CRASH_MID_RESTORE:
                # A restore_to begins while this request is already on a
                # worker, and the process is killed inside it: arg 0 dies in
                # the drain window (storage untouched), arg 1 after the
                # storage rewrite — a restore *to now*, so every committed
                # transaction survives and the exactly-once oracle still
                # applies — but before the fresh engine boots.  Either way
                # the restore degrades into the unplanned crash path.
                try:
                    self.server.begin_drain()
                except errors.OperationalError:
                    pass  # already draining/down — the kill below still lands
                if fault_arg:
                    try:
                        self.server.restore_storage_to(None)
                    except errors.Error:
                        pass
                self.server.crash()
                raise errors.CommunicationError(
                    "connection reset by peer (server crashed mid-restore)"
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
                # the log device failed under the server: that is a process
                # kill, not an SQL error — nothing in-band can describe it
                self.server.crash()
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

    # -- dispatch --------------------------------------------------------------

    def _dispatch(self, request: Request) -> Response:
        server = self.server
        if isinstance(request, ConnectRequest):
            session_id = server.connect(request.user, request.options)
            return ConnectResponse(session_id=session_id, server_epoch=self.epoch)
        if isinstance(request, ExecuteRequest):
            result = server.execute(
                request.session_id,
                request.sql,
                placeholders=request.placeholders,
                cursor_type=request.cursor_type,
            )
            return _result_response(result)
        if isinstance(request, BatchExecuteRequest):
            with get_tracer().span("wire.batch", statements=len(request.rows)) as span:
                results, error, error_index = server.execute_batch(
                    request.session_id, request.sql, request.rows
                )
                span.set(executed=len(results), error_index=error_index)
            return BatchExecuteResponse(
                results=[_result_response(r) for r in results],
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
        if isinstance(request, AdvanceRequest):
            server.advance(request.session_id, request.cursor_id, request.position)
            return OkResponse(message="advanced")
        if isinstance(request, CloseCursorRequest):
            server.close_cursor(request.session_id, request.cursor_id)
            return OkResponse(message="cursor closed")
        if isinstance(request, DisconnectRequest):
            server.disconnect(request.session_id)
            return OkResponse(message="bye")
        if isinstance(request, PingRequest):
            return PongResponse(server_epoch=self.epoch, up_sessions=len(server.sessions))
        if isinstance(request, TableSchemaRequest):
            schema = server.table_schema(request.session_id, request.table)
            return TableSchemaResponse(
                columns=list(schema.columns), primary_key=schema.primary_key
            )
        raise errors.InterfaceError(f"unknown request type {type(request).__name__}")


def _result_response(result) -> ResultResponse:
    """Convert a :class:`StatementResult` into its wire shape."""
    if result.kind == "rows":
        if result.cursor_id is not None:
            return ResultResponse(
                kind="rows",
                columns=result.extra["columns"],
                cursor_id=result.cursor_id,
                effective_cursor_type=result.extra["effective_cursor_type"],
            )
        return ResultResponse(
            kind="rows",
            columns=result.result_set.columns,
            rows=result.result_set.rows,
            into_columns=result.extra.get("into_columns", []),
        )
    if result.kind == "rowcount":
        return ResultResponse(
            kind="rowcount",
            rowcount=result.rowcount,
            message=result.message,
            batch_rowcounts=result.extra.get("batch_rowcounts", []),
            into_columns=result.extra.get("into_columns", []),
        )
    return ResultResponse(
        kind="ok",
        message=result.message,
        batch_rowcounts=result.extra.get("batch_rowcounts", []),
    )


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

    def close(self) -> None:
        """Release transport-wide resources (channels close individually)."""

    def describe(self) -> str:
        return self.name


class _InProcessWire:
    """The zero-copy wire: a direct call into the endpoint."""

    __slots__ = ("endpoint",)

    def __init__(self, endpoint: ServerEndpoint):
        self.endpoint = endpoint

    def roundtrip(self, raw_request: bytes) -> bytes:
        return self.endpoint.handle(raw_request)

    def close(self) -> None:
        pass


class InProcessTransport(Transport):
    """Today's direct ``endpoint.handle`` call behind the Transport API."""

    name = "inprocess"

    def __init__(self, endpoint: ServerEndpoint):
        self.endpoint = endpoint

    def open_channel(self, metrics: NetworkMetrics | None = None) -> "ClientChannel":
        return ClientChannel(self.endpoint, metrics=metrics)


class ClientChannel:
    """One client connection over some wire.

    Not a session by itself — the session is created by sending a
    ``ConnectRequest`` — but the channel mirrors a socket's lifecycle:
    usable until the first communication error, then permanently broken.

    ``wire`` is either a :class:`ServerEndpoint` (the historical
    constructor shape, wrapped in the in-process wire) or any object with
    ``roundtrip(bytes) -> bytes`` and ``close()``.
    """

    def __init__(
        self,
        wire,
        metrics: NetworkMetrics | None = None,
    ):
        self.channel_id = next(_channel_ids)
        if isinstance(wire, ServerEndpoint):
            wire = _InProcessWire(wire)
        self.wire = wire
        #: the endpoint behind an in-process wire; ``None`` over a socket
        self.endpoint = getattr(wire, "endpoint", None)
        self.metrics = metrics if metrics is not None else NetworkMetrics()
        self.broken = False

    def send(self, request: Request) -> Response:
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
            except errors.TimeoutError:
                # a client-side timeout abandons the request but not the socket:
                # the server may just be slow (Phoenix probes to find out)
                self.metrics.record_error(request_type, len(raw))
                raise
            except errors.CommunicationError:
                self.broken = True
                self.metrics.record_error(request_type, len(raw))
                raise
            response = decode_message(raw_response)
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
