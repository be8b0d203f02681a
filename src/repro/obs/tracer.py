"""Structured tracing: spans, events, and correlation ids.

One :class:`Tracer` records what a process did as a flat list of plain-dict
records — *spans* (named intervals with a start/end timestamp and a parent
link) and *events* (named instants attached to the enclosing span).  The
records are cheap to produce, trivially JSON-serializable, and carry enough
structure for :mod:`repro.obs.timeline` to rebuild a causal tree.

Design rules (these are load-bearing — tests pin them):

* **Off by default, and a true no-op when off.**  The process-wide tracer
  (:func:`get_tracer`) starts disabled; a disabled tracer allocates no ids,
  appends no records, and :meth:`Tracer.span` returns one shared inert
  context manager, so instrumented hot paths cost a method call and an
  attribute check.
* **Deterministic ids.**  Span and correlation ids are sequential counters
  scoped to the tracer instance, prefixed with a caller-chosen ``seed`` —
  never derived from wall-clock time or process randomness, so two runs of
  the same deterministic workload produce byte-identical id streams (the
  same discipline as the chaos explorer's seeded schedules).
* **Correlation by inheritance.**  The tracer keeps a stack of active
  spans.  A span (or event) opened without an explicit ``corr`` inherits
  the enclosing span's correlation id, which is how one Phoenix virtual
  session's id flows from the driver manager through the wire into the
  engine — including the engine's own restart recovery, which runs inside
  the client's recovery wait — with no protocol or signature changes.
* **Timestamps are monotonic** (``time.perf_counter`` by default,
  injectable) and only ever used for durations and ordering, never for
  identity.

Record shapes::

    {"kind": "span",  "id": 3, "parent": 1, "corr": "s0-c1", "name": "wire.send",
     "start": 0.01, "end": 0.02, "error": null, "attrs": {"request": "ExecuteRequest"}}
    {"kind": "event", "id": 4, "parent": 3, "corr": "s0-c1", "name": "fault.fired",
     "at": 0.015, "attrs": {"fault": "hang"}}
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "load_jsonl",
    "dump_jsonl",
]


class _NullSpan:
    """The shared do-nothing span a disabled tracer hands out."""

    __slots__ = ()
    id = None
    corr = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One live span.  Use as a context manager; attributes added with
    :meth:`set` land in the record when the span closes.  An exception
    propagating through the span marks it with ``error`` (and is never
    swallowed)."""

    __slots__ = ("_tracer", "id", "parent", "corr", "name", "start", "attrs")

    def __init__(self, tracer: "Tracer", span_id: int, parent: int | None,
                 corr: str | None, name: str, attrs: dict):
        self._tracer = tracer
        self.id = span_id
        self.parent = parent
        self.corr = corr
        self.name = name
        self.attrs = attrs
        self.start = 0.0

    def set(self, **attrs: Any) -> None:
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self.start = self._tracer.clock()
        self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        end = tracer.clock()
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        else:  # tolerate exotic unwind orders rather than corrupt the stack
            try:
                stack.remove(self)
            except ValueError:
                pass
        tracer.records.append({
            "kind": "span",
            "id": self.id,
            "parent": self.parent,
            "corr": self.corr,
            "name": self.name,
            "start": self.start,
            "end": end,
            "error": None if exc is None else f"{type(exc).__name__}: {exc}",
            "attrs": self.attrs,
        })
        return False


class Tracer:
    """Span/event recorder for one process (or one test).

    ``enabled=False`` builds an inert tracer — useful for measuring that
    an *installed but disabled* tracer costs the same as none at all.
    ``seed`` prefixes every correlation id, keeping ids from concurrent
    systems (or repeated runs) distinguishable yet deterministic.
    """

    def __init__(self, *, enabled: bool = True, seed: int = 0,
                 clock: Callable[[], float] = time.perf_counter):
        self.enabled = enabled
        self.seed = seed
        self.clock = clock
        self.records: list[dict] = []
        #: total span/event/correlation ids handed out — the no-op test
        #: asserts this stays 0 while disabled
        self.ids_allocated = 0
        #: the active-span stack is *per thread*: under threaded dispatch a
        #: server worker's engine spans must nest under that worker's own
        #: dispatch span, not under whichever span another thread opened last
        self._stacks = threading.local()
        self._id_lock = threading.Lock()

    @property
    def _stack(self) -> list[Span]:
        stack = getattr(self._stacks, "stack", None)
        if stack is None:
            stack = self._stacks.stack = []
        return stack

    # ------------------------------------------------------------------ ids

    def _next_id(self) -> int:
        with self._id_lock:
            self.ids_allocated += 1
            return self.ids_allocated

    def new_correlation_id(self) -> str | None:
        """A fresh correlation id (one per Phoenix virtual session), or
        None when disabled — callers store it blindly either way."""
        if not self.enabled:
            return None
        return f"s{self.seed}-c{self._next_id()}"

    # ------------------------------------------------------------------ recording

    @property
    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def span(self, name: str, *, corr: str | None = None, **attrs: Any):
        """Open a span.  ``corr`` defaults to the enclosing span's
        correlation id (inheritance is the propagation rule)."""
        if not self.enabled:
            return _NULL_SPAN
        parent = self._stack[-1] if self._stack else None
        if corr is None and parent is not None:
            corr = parent.corr
        return Span(self, self._next_id(), parent.id if parent else None, corr, name, attrs)

    def event(self, name: str, *, corr: str | None = None, **attrs: Any) -> None:
        """Record an instantaneous event under the current span."""
        if not self.enabled:
            return
        parent = self._stack[-1] if self._stack else None
        if corr is None and parent is not None:
            corr = parent.corr
        self.records.append({
            "kind": "event",
            "id": self._next_id(),
            "parent": parent.id if parent else None,
            "corr": corr,
            "name": name,
            "at": self.clock(),
            "attrs": attrs,
        })

    # ------------------------------------------------------------------ export

    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records)

    def dump_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl() + ("\n" if self.records else ""))

    def clear(self) -> None:
        self.records.clear()
        self._stack.clear()


def dump_jsonl(records: list[dict], path: str) -> None:
    """Write a record list as JSONL (one record per line)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_jsonl(path: str) -> list[dict]:
    """Read a JSONL trace back into a record list."""
    records = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


#: the process-wide tracer every instrumentation site consults.  Disabled
#: by default: tracing is strictly opt-in (tests and the CLI install their
#: own enabled tracer and restore the previous one after).
_tracer = Tracer(enabled=False)


def get_tracer() -> Tracer:
    return _tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` process-wide; returns the previous one so callers
    can restore it (see :func:`use_tracer`)."""
    global _tracer
    previous = _tracer
    _tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: Tracer) -> Iterator[Tracer]:
    """Scoped installation: the previous tracer is restored on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
