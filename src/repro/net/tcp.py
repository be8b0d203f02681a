"""Real-socket serving tier: asyncio TCP front end + blocking client wire.

:class:`TcpServer` listens on a real TCP socket and speaks the *existing*
:mod:`repro.net.protocol` messages over length-prefixed frames
(:mod:`repro.net.framing`).  One asyncio event loop — running on a
dedicated daemon thread — multiplexes every connection: thousands of
mostly-idle sessions cost one file descriptor each, not one thread each.
The loop never executes engine work; a completed REQUEST frame is handed to
:meth:`~repro.net.transport.ServerEndpoint.submit`, which enqueues it on
the existing :class:`~repro.engine.dispatch.SessionDispatcher` worker pool
(per-session FIFO ordering preserved — the dispatch key is the session id
from the decoded message, exactly as in-process).  The worker's completion
callback posts the reply back onto the loop with
``call_soon_threadsafe``, and the loop writes the frame.  The sync engine
is untouched.

Fault injection keeps working unchanged: the :class:`FaultInjector` fires
inside ``_serve`` on the dispatch worker, behind this front end.  What the
in-process wire surfaces as raised exceptions, the socket wire ships as
control frames — ``TIMEOUT`` for the HANG fault (connection survives,
matching the in-process rule that a client-side timeout doesn't break the
socket) and ``FATAL`` + close for crash/drop faults (the client re-raises
the named :class:`~repro.errors.CommunicationError` subclass and the
channel breaks, exactly like in-process).  Crucially the *listener*
outlives engine crashes — the serving tier is a separate failure domain —
so a recovering Phoenix driver reconnects on a fresh socket to the same
address and finds either a booting engine (``ServerCrashedError`` per
request until restart) or the recovered one.

:class:`TcpTransport` is the client half: a
:class:`~repro.net.transport.Transport` whose channels each own one
blocking socket (lazy-connected on first send, ``TCP_NODELAY``).  The
Phoenix driver opens a fresh channel per (re)connect — recovery's ping —
so recovery exercises genuine reconnects with zero driver changes.
"""

from __future__ import annotations

import asyncio
import socket
import threading
from collections import deque

from repro import errors
from repro.net import framing
from repro.net.metrics import NetStats, NetworkMetrics
from repro.net.transport import ClientChannel, ServerEndpoint, Transport
from repro.obs.tracer import get_tracer

__all__ = ["TcpServer", "TcpTransport"]

#: client-side cap on waiting for one reply frame.  Generous on purpose:
#: deterministic HANG faults arrive instantly as TIMEOUT frames, so this
#: only fires on a genuinely wedged server, where it surfaces as
#: :class:`~repro.errors.TimeoutError` and the wire refuses reuse (the
#: request/response pairing on the socket is no longer trustworthy).
REQUEST_TIMEOUT = 30.0
CONNECT_TIMEOUT = 5.0

_RECV_CHUNK = 65536


# --------------------------------------------------------------------------
# server side
# --------------------------------------------------------------------------


class _ServerConnection(asyncio.Protocol):
    """One accepted socket: frame reassembly + request handoff."""

    def __init__(self, owner: "TcpServer"):
        self.owner = owner
        self.decoder = framing.FrameDecoder()
        self.transport: asyncio.Transport | None = None
        self.peer = None

    # asyncio callbacks — all run on the server's event loop

    def connection_made(self, transport) -> None:
        self.transport = transport
        self.peer = transport.get_extra_info("peername")
        sock = transport.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        self.owner._connection_made(self)

    def connection_lost(self, exc) -> None:
        self.owner._connection_lost(self)

    def data_received(self, data: bytes) -> None:
        try:
            frames = self.decoder.feed(data)
        except framing.FrameError as exc:
            # corrupt stream: nothing downstream can be trusted — notify + drop
            self.owner._send_error(
                self, errors.CommunicationError(f"protocol error: {exc}")
            )
            return
        for frame_type, payload in frames:
            if frame_type != framing.FRAME_REQUEST:
                self.owner._send_error(
                    self,
                    errors.CommunicationError(
                        f"unexpected client frame type 0x{frame_type:02x}"
                    ),
                )
                return
            self.owner._request_received(self, payload)


class TcpServer:
    """The asyncio front end over a :class:`ServerEndpoint`.

    ``start()`` spins up the event loop on a daemon thread and binds the
    listener (``port=0`` picks a free port; the bound address is then in
    :attr:`address` / :attr:`url`).  The server is a *front end*, not the
    engine: it keeps accepting while the engine is crashed or swapping, so
    clients always reach something that can tell them what is wrong —
    which is what makes reconnect recovery work over real sockets.
    """

    def __init__(
        self,
        endpoint: ServerEndpoint,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        stats: NetStats | None = None,
    ):
        self.endpoint = endpoint
        self.stats = stats if stats is not None else NetStats()
        self._host = host
        self._port = port
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        #: live connections — touched only on the loop thread
        self._connections: set[_ServerConnection] = set()
        #: ``(host, port)`` actually bound; set by :meth:`start`
        self.address: tuple[str, int] | None = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "TcpServer":
        if self._thread is not None:
            raise errors.InterfaceError("TcpServer is already started")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="tcp-serve", daemon=True
        )
        self._thread.start()
        asyncio.run_coroutine_threadsafe(self._open_listener(), self._loop).result(
            timeout=10
        )
        return self

    def stop(self) -> None:
        """Close the listener and every connection, then stop the loop."""
        loop, thread = self._loop, self._thread
        if loop is None:
            return
        self._loop = None
        self._thread = None
        try:
            asyncio.run_coroutine_threadsafe(self._close_all(), loop).result(timeout=10)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            if thread is not None:
                thread.join(timeout=10)
            loop.close()

    @property
    def url(self) -> str:
        if self.address is None:
            raise errors.InterfaceError("TcpServer is not started")
        host, port = self.address
        return f"tcp://{host}:{port}"

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    async def _open_listener(self) -> None:
        self._server = await self._loop.create_server(
            lambda: _ServerConnection(self), self._host, self._port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])

    async def _close_all(self) -> None:
        for conn in list(self._connections):
            if conn.transport is not None:
                conn.transport.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # -- per-connection plumbing (loop thread unless noted) -------------------

    def _connection_made(self, conn: _ServerConnection) -> None:
        self._connections.add(conn)
        self.stats.connection_opened()
        get_tracer().event("net.accept", peer=str(conn.peer))

    def _connection_lost(self, conn: _ServerConnection) -> None:
        if conn in self._connections:
            self._connections.discard(conn)
            self.stats.connection_closed()

    def _request_received(self, conn: _ServerConnection, payload: bytes) -> None:
        self.stats.frame_received(len(payload))
        self.endpoint.submit(
            payload,
            lambda value, exc, conn=conn: self._post_reply(conn, value, exc),
            frame_attrs={"peer": str(conn.peer), "bytes_in": len(payload)},
        )

    def _post_reply(self, conn: _ServerConnection, value, exc) -> None:
        # runs on a dispatch worker (or synchronously on the loop for the
        # planned-restart connect bypass): hop back to the loop, the only thread that writes
        loop = self._loop
        if loop is None:
            return  # server stopped while the request was in flight
        try:
            loop.call_soon_threadsafe(self._deliver, conn, value, exc)
        except RuntimeError:
            pass  # loop closed under us: the client sees EOF instead

    def _deliver(self, conn: _ServerConnection, value, exc) -> None:
        transport = conn.transport
        if transport is None or transport.is_closing():
            return  # client went away while the request ran
        if exc is None:
            frame = framing.encode_frame(framing.FRAME_RESPONSE, value)
            transport.write(frame)
            self.stats.frame_sent(len(frame))
            return
        if isinstance(exc, errors.TimeoutError):
            # HANG: the reply is abandoned but the connection survives —
            # the socket analogue of the in-process timeout contract
            frame = framing.encode_frame(
                framing.FRAME_TIMEOUT,
                framing.encode_notice(type(exc).__name__, str(exc)),
            )
            transport.write(frame)
            self.stats.frame_sent(len(frame), fatal=True)
            return
        self._send_error(conn, exc)

    def _send_error(self, conn: _ServerConnection, exc: BaseException) -> None:
        """FATAL notice + close: the socket analogue of a raised
        CommunicationError (crash, drop, protocol corruption)."""
        transport = conn.transport
        if transport is None or transport.is_closing():
            return
        name = type(exc).__name__ if isinstance(exc, errors.Error) else "InternalError"
        frame = framing.encode_frame(
            framing.FRAME_FATAL, framing.encode_notice(name, str(exc))
        )
        transport.write(frame)
        self.stats.frame_sent(len(frame), fatal=True)
        transport.close()


# --------------------------------------------------------------------------
# client side
# --------------------------------------------------------------------------


def _notice_error(name: str, message: str, fallback: type) -> errors.Error:
    """Rebuild a control-frame notice as its original exception class."""
    error_class = getattr(errors, name, fallback)
    if not (isinstance(error_class, type) and issubclass(error_class, errors.Error)):
        error_class = fallback
    return error_class(message)


class _TcpWire:
    """One blocking client socket speaking the frame protocol.

    Lazy-connects on the first round trip.  Any socket-level failure (EOF,
    reset, refused, real timeout) permanently kills the wire — the
    request/response pairing on a half-broken socket can't be trusted —
    which is exactly the broken-channel contract :class:`ClientChannel`
    already enforces one layer up.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._sock: socket.socket | None = None
        self._decoder = framing.FrameDecoder()
        self._frames: deque[tuple[int, bytes]] = deque()
        self._dead = False

    def roundtrip(self, raw_request: bytes) -> bytes:
        if self._dead:
            raise errors.CommunicationError("socket is closed (previous failure)")
        try:
            if self._sock is None:
                self._connect()
            self._sock.sendall(
                framing.encode_frame(framing.FRAME_REQUEST, raw_request)
            )
            frame_type, payload = self._read_frame()
        except socket.timeout as exc:
            self._teardown()
            raise errors.TimeoutError(
                f"request timed out after {REQUEST_TIMEOUT}s (socket)"
            ) from exc
        except framing.FrameError as exc:
            self._teardown()
            raise errors.CommunicationError(f"protocol error: {exc}") from exc
        except OSError as exc:
            self._teardown()
            raise errors.CommunicationError(
                f"connection reset by peer (socket: {exc})"
            ) from exc
        if frame_type == framing.FRAME_RESPONSE:
            return payload
        if frame_type == framing.FRAME_TIMEOUT:
            # reply abandoned server-side; the socket itself stays usable
            name, message = framing.decode_notice(payload)
            raise _notice_error(name, message, errors.TimeoutError)
        if frame_type == framing.FRAME_FATAL:
            self._teardown()
            name, message = framing.decode_notice(payload)
            raise _notice_error(name, message, errors.CommunicationError)
        self._teardown()
        raise errors.CommunicationError(f"unexpected frame type 0x{frame_type:02x}")

    def close(self) -> None:
        self._teardown()

    def _connect(self) -> None:
        sock = socket.create_connection(
            (self.host, self.port), timeout=CONNECT_TIMEOUT
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(REQUEST_TIMEOUT)
        self._sock = sock

    def _read_frame(self) -> tuple[int, bytes]:
        if self._frames:
            return self._frames.popleft()
        while True:
            data = self._sock.recv(_RECV_CHUNK)
            if not data:
                # EOF without a FATAL notice (the notice itself was lost):
                # degrade to the generic broken-connection error
                raise ConnectionResetError("server closed the connection")
            self._frames.extend(self._decoder.feed(data))
            if self._frames:
                return self._frames.popleft()

    def _teardown(self) -> None:
        self._dead = True
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass


class TcpTransport(Transport):
    """Client transport over real TCP: each channel is one socket."""

    name = "tcp"

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port

    def open_channel(self, metrics: NetworkMetrics | None = None) -> ClientChannel:
        return ClientChannel(_TcpWire(self.host, self.port), metrics=metrics)
