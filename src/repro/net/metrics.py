"""Network accounting: round trips and bytes.

The paper's design decisions are round-trip-count decisions (`WHERE 0=1`,
server-side INSERT procedures, server-side repositioning), so the harness
treats round trips as a first-class measurement next to wall-clock time.
Wire transit time, where a benchmark wants it, is slept on the client's
thread by ``ServerEndpoint.latency``.
"""

from __future__ import annotations

import threading
from collections import Counter

from repro.obs.metrics import CounterSet, gauge

__all__ = ["NetworkMetrics", "NetStats"]


class NetworkMetrics(CounterSet):
    """Counters for one channel (or aggregated across channels).

    Reset, merge and snapshot semantics are :class:`CounterSet`'s.
    """

    round_trips: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    #: BatchExecuteRequests sent (each is one round trip)
    batch_requests: int = 0
    #: statements that travelled inside batch requests — the round trips
    #: batching saved is ``requests_batched - batch_requests``
    requests_batched: int = 0
    errors: int = 0
    by_request_type: Counter = Counter()
    #: failed round trips broken down by request type — recovery's connect
    #: storms against a down server show up here as ConnectRequest errors,
    #: distinguishable from an application statement dying in flight.
    errors_by_request_type: Counter = Counter()

    def __init__(self) -> None:
        super().__init__()
        #: guards the read-modify-write updates — one metrics object is
        #: shared by every channel of a driver, and under threaded dispatch
        #: many client threads record concurrently
        self._lock = threading.Lock()

    def record(self, request_type: str, sent: int, received: int) -> None:
        with self._lock:
            self.round_trips += 1
            self.bytes_sent += sent
            self.bytes_received += received
            self.by_request_type[request_type] += 1

    def record_batch(self, statements: int) -> None:
        """One batch request carrying ``statements`` sub-statements (counted
        once per send attempt, success or not — the trip happened)."""
        with self._lock:
            self.batch_requests += 1
            self.requests_batched += statements

    def record_error(self, request_type: str, sent: int) -> None:
        """A round trip that died in flight still costs a trip out."""
        with self._lock:
            self.round_trips += 1
            self.bytes_sent += sent
            self.by_request_type[request_type] += 1
            self.errors += 1
            self.errors_by_request_type[request_type] += 1


class NetStats(CounterSet):
    """Socket-tier counters — the ``net`` slot of the registry.

    Fed by :class:`~repro.net.tcp.TcpServer` (accepts, frames, bytes).
    ``connections_open`` is a gauge — it describes current state, so
    ``reset()`` leaves it alone.
    """

    connections_accepted: int = 0
    connections_closed: int = 0
    connections_open: int = gauge(0)
    frames_received: int = 0
    frames_sent: int = 0
    bytes_received: int = 0
    bytes_sent: int = 0
    #: TIMEOUT/FATAL frames sent — transport-level failures delivered
    #: to clients (in-band SQL errors are ordinary RESPONSE frames)
    fatal_frames_sent: int = 0

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_accepted += 1
            self.connections_open += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_closed += 1
            self.connections_open -= 1

    def frame_received(self, nbytes: int) -> None:
        with self._lock:
            self.frames_received += 1
            self.bytes_received += nbytes

    def frame_sent(self, nbytes: int, *, fatal: bool = False) -> None:
        with self._lock:
            self.frames_sent += 1
            self.bytes_sent += nbytes
            if fatal:
                self.fatal_frames_sent += 1
