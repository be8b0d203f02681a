"""Threaded request dispatch: per-session FIFO queues over a worker pool.

:class:`SessionDispatcher` is the concurrency layer between the wire and
the engine.  Each session's requests form a FIFO queue; at most one request
per session is in flight at a time (per-session ordering — a session's
statements never reorder or overlap), while requests from *different*
sessions run on worker threads concurrently and interleave freely inside
the engine, which guards its shared state with the engine-wide mutex (see
:class:`~repro.engine.server.DatabaseServer`) and waits on table locks
(:mod:`repro.engine.locks`).

The pool is **dynamic**: workers spawn lazily when work arrives and no
worker is idle, and die after a short idle timeout.  Lazy spawn keeps the
hundreds of short-lived systems the chaos explorer builds cheap; the
no-idle-worker spawn rule is load-bearing for correctness, not just
latency — a worker sleeping in a lock wait is *pinned*, and the session
holding that lock needs a free worker for the commit that will release it.
A fixed-size pool could pin every worker behind one holder and deadlock
the server against itself.

:meth:`submit` never blocks: a request's reply is delivered to its
callback on the worker that ran it.  A client that waits for that callback
keeps the wire's synchronous request/response shape; concurrency comes from
many clients calling in at once.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable

from repro.obs.metrics import CounterSet, gauge

__all__ = ["SessionDispatcher", "DispatchStats"]

#: hard ceiling on pool size — far above any bench (16 clients, one session
#: each), merely a backstop against runaway spawning
MAX_WORKERS = 64
#: seconds an idle worker lingers before exiting (lazy pools stay small)
IDLE_TIMEOUT = 0.5


class DispatchStats(CounterSet):
    """Dispatcher counters — the ``dispatch`` slot of the registry.  The
    two peaks are gauges: high-water marks of a pool that is still
    running, which a ``reset()`` must not pretend away."""

    dispatched: int = 0
    workers_spawned: int = 0
    peak_workers: int = gauge(0)
    peak_queued: int = gauge(0)


class SessionDispatcher:
    """Per-key FIFO work queues over a dynamic worker pool."""

    def __init__(self, *, stats: DispatchStats | None = None):
        self._cond = threading.Condition()
        #: key -> pending items; present iff the key has queued *or running*
        #: work (the running item stays at the head until it finishes); an
        #: item is ``(fn, callback)``
        self._queues: dict[Any, deque[tuple[Callable, Callable]]] = {}
        #: keys whose head item is runnable and unclaimed
        self._ready: deque[Any] = deque()
        self._workers = 0
        self._idle = 0
        self._closed = False
        self.stats = stats if stats is not None else DispatchStats()

    # ----------------------------------------------------------- submission

    def submit(
        self,
        key: Any,
        fn: Callable[[], Any],
        callback: Callable[[Any, BaseException | None], None],
    ) -> None:
        """Enqueue ``fn`` under ``key`` without blocking the caller.

        Completion is delivered by invoking ``callback(value, exc)`` on the
        worker thread that ran the item (exactly one of the two is
        non-``None`` unless ``fn`` returned ``None``; check ``exc`` first).
        Items under the same key run strictly in submission order, one at
        a time; items under different keys run concurrently.  A raised
        callback is swallowed: the reply path owns its own error handling
        and must not poison the worker.
        """
        item = (fn, callback)
        with self._cond:
            if self._closed:
                raise RuntimeError("dispatcher is closed")
            queue = self._queues.get(key)
            if queue is None:
                queue = self._queues[key] = deque()
                queue.append(item)
                self._ready.append(key)
                self._ensure_worker()
                self._cond.notify()
            else:
                # the key is busy (running or queued): the worker finishing
                # its head item re-readies the key — no notify needed
                queue.append(item)
            self.stats.dispatched += 1
            self.stats.peak_queued = max(
                self.stats.peak_queued, sum(len(q) for q in self._queues.values())
            )

    def close(self) -> None:
        """Reject new work and wake idle workers so they exit.  Pending
        items still drain (their callers are blocked on them)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def active_workers(self) -> int:
        with self._cond:
            return self._workers

    # ----------------------------------------------------------- pool

    def _ensure_worker(self) -> None:
        # called under the condition lock
        if self._idle == 0 and self._workers < MAX_WORKERS:
            self._workers += 1
            self.stats.workers_spawned += 1
            self.stats.peak_workers = max(self.stats.peak_workers, self._workers)
            thread = threading.Thread(
                target=self._worker,
                name=f"session-dispatch-{self.stats.workers_spawned}",
                daemon=True,
            )
            thread.start()

    def _worker(self) -> None:
        while True:
            with self._cond:
                while not self._ready:
                    if self._closed:
                        self._workers -= 1
                        return
                    self._idle += 1
                    signaled = self._cond.wait(IDLE_TIMEOUT)
                    self._idle -= 1
                    if not signaled and not self._ready:
                        self._workers -= 1
                        return
                key = self._ready.popleft()
                fn, callback = self._queues[key][0]
                if self._ready:
                    # more keys are runnable than workers were woken: two
                    # near-simultaneous submissions can both observe the
                    # same idle worker (neither spawns) while their two
                    # notifies wake it only once — and if this item now
                    # parks in a lock wait, the other key would sit ready
                    # until the wait ends.  Whoever takes work while work
                    # remains re-arms the pool.
                    self._ensure_worker()
                    self._cond.notify()
            value = exc = None
            try:
                value = fn()
            except BaseException as raised:  # delivered to the callback
                exc = raised
            try:
                callback(value, exc)
            except Exception:
                pass  # see submit(): the reply path owns its errors
            with self._cond:
                queue = self._queues[key]
                queue.popleft()
                if queue:
                    self._ready.append(key)
                    self._cond.notify()
                else:
                    del self._queues[key]
            # an idle wait must not pin the finished item: through its
            # function's closure it holds the endpoint, the server and the
            # database — of a closed system, perhaps, for IDLE_TIMEOUT
            del fn, callback, value, exc, key, queue
