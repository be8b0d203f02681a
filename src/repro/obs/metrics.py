"""One observability surface: counters + latency histograms behind one
``snapshot()``.

This module is also the **single place the reset semantics of every metrics
object in the system are defined** — and, since every stats class derives
from :class:`CounterSet`, the single place they are *implemented*:

* **Counters are cumulative across ``crash()``/``restart()``.**  They
  describe the *simulation's* history, not server state, so a crash must
  not zero them — a recovery that silently reset the books would hide
  exactly the traffic recovery costs.
* **Caches and other volatile structures always drop on crash.**  The
  parse cache, plan caches, sessions, cursors: a restart starts cold.
  Counters surviving while caches drop is therefore *by design*, not an
  inconsistency — the counters are how tests prove the caches dropped
  (fresh misses for SQL that used to hit).
* **``reset()`` is an explicit observer action** — the only way counters
  return to zero.  Benchmarks call it to scope a measurement window; the
  system itself never does.
* **Gauges are exempt from ``reset()``.**  A gauge (open connections, a
  peak) describes current state rather than history; zeroing it would
  make it lie about the system that is still running.

:class:`MetricsRegistry` unifies the per-layer counter sets behind one
snapshot and one reset, and adds :class:`Histogram` latency distributions
(fixed log-scale buckets, pure Python).  Histograms are *derived from
traces* (:meth:`MetricsRegistry.absorb_trace`) rather than recorded inline,
so the wire and engine hot paths carry no histogram bookkeeping.
"""

from __future__ import annotations

import inspect
from bisect import bisect_left
from collections import Counter
from contextlib import nullcontext
from typing import Iterable

__all__ = ["CounterSet", "Histogram", "MetricsRegistry", "gauge"]


class gauge:
    """Declares a :class:`CounterSet` field as a gauge: ``x: int = gauge(0)``.

    Gauges describe what is true *now* (connections open, the largest pool
    seen), so ``reset()`` leaves them alone and ``merge()`` does not add
    them; they still appear in ``snapshot()``.
    """

    def __init__(self, zero):
        self.zero = zero


class CounterSet:
    """A named set of counters: the base of every stats class.

    A subclass declares each field once, as an annotated class attribute
    holding its zero value (``forces: int = 0``; a per-key tally is a
    ``Counter()``; a gauge is ``gauge(0)``), and gets the whole contract of
    the module docstring from here: every instance starts at zero,
    :meth:`snapshot` lists every declared field, :meth:`reset` zeroes the
    counters and leaves the gauges, :meth:`merge` adds another set's
    counters in.  Nothing in the system calls ``reset()`` — a crash or a
    restart does not touch a counter set, because the objects are owned by
    the registry (or the connection), not by the volatile engine.

    Fields are ordinary instance attributes, so a hot path bumps one with a
    plain ``stats.forces += 1``.  A set written from several threads gives
    itself a ``_lock`` and takes it in its own ``record*`` methods; the
    inherited methods take the same lock.
    """

    #: field name → zero value, in declaration order (filled per subclass)
    _zeros: dict[str, object] = {}
    _gauges: frozenset[str] = frozenset()
    #: replaced by a real lock in sets that several threads write
    _lock = nullcontext()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        zeros, gauges = dict(cls._zeros), set(cls._gauges)
        for name in inspect.get_annotations(cls):
            if name.startswith("_"):
                continue
            zero = cls.__dict__[name]
            if isinstance(zero, gauge):
                zero = zero.zero
                gauges.add(name)
                setattr(cls, name, zero)
            zeros[name] = zero
        cls._zeros, cls._gauges = zeros, frozenset(gauges)

    def __init__(self) -> None:
        for name, zero in self._zeros.items():
            setattr(self, name, _fresh(zero))

    def snapshot(self) -> dict:
        with self._lock:
            values = {name: getattr(self, name) for name in self._zeros}
            return {
                name: dict(value) if isinstance(value, Counter) else value
                for name, value in values.items()
            }

    def reset(self) -> None:
        """The explicit observer-side reset: counters to zero, gauges kept."""
        with self._lock:
            for name, zero in self._zeros.items():
                if name not in self._gauges:
                    setattr(self, name, _fresh(zero))

    def merge(self, other: "CounterSet") -> None:
        """Fold another set's counters in (multi-system benchmarks
        aggregate this way); gauges describe one object and stay."""
        with self._lock:
            for name in self._zeros:
                if name in self._gauges:
                    continue
                mine, theirs = getattr(self, name), getattr(other, name)
                if isinstance(mine, Counter):
                    mine.update(theirs)
                else:
                    setattr(self, name, mine + theirs)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v!r}" for k, v in self.snapshot().items())
        return f"{type(self).__name__}({body})"


def _fresh(zero):
    return Counter() if isinstance(zero, Counter) else zero


class Histogram:
    """Latency histogram over fixed log-scale buckets.

    Bucket upper edges are ``min_edge * base**i`` for ``i in
    range(buckets)``; value ``v`` lands in the first bucket whose edge is
    ``>= v`` (values above the last edge land in an overflow bucket).  The
    defaults span 1 µs … ~1 hour in half-decade-ish steps — wide enough for
    both a sub-millisecond wire send and a multi-second recovery wait.
    """

    def __init__(self, *, min_edge: float = 1e-6, base: float = 2.0, buckets: int = 32):
        if min_edge <= 0 or base <= 1 or buckets < 1:
            raise ValueError("histogram needs min_edge > 0, base > 1, buckets >= 1")
        self.edges: list[float] = [min_edge * base**i for i in range(buckets)]
        self.counts: list[int] = [0] * (buckets + 1)  # + overflow
        self.n = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def record(self, value: float) -> None:
        self.counts[bisect_left(self.edges, value)] += 1
        self.n += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def record_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.record(value)

    def quantile(self, q: float) -> float:
        """Upper bucket edge at cumulative fraction ``q`` (0 < q <= 1) —
        a conservative estimate, exact to bucket resolution."""
        if not 0.0 < q <= 1.0:
            raise ValueError("quantile fraction must be in (0, 1]")
        if self.n == 0:
            return 0.0
        target = q * self.n
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                return self.edges[i] if i < len(self.edges) else self.max
        return self.max

    def snapshot(self) -> dict:
        nonzero = {
            f"{self.edges[i]:.9g}" if i < len(self.edges) else "+inf": count
            for i, count in enumerate(self.counts)
            if count
        }
        return {
            "count": self.n,
            "sum": self.sum,
            "min": self.min if self.n else 0.0,
            "max": self.max,
            "mean": self.sum / self.n if self.n else 0.0,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "buckets": nonzero,
        }

    def reset(self) -> None:
        self.counts = [0] * len(self.counts)
        self.n = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0


#: span names whose durations absorb_trace() turns into histograms, and the
#: histogram each feeds.  wire.send durations are additionally split per
#: request type (``wire.send.ExecuteRequest`` etc.).
_SPAN_HISTOGRAMS = {
    "wire.send": "wire.send",
    "server.dispatch": "server.dispatch",
    "engine.stmt": "engine.stmt",
    "recovery": "recovery.total",
    "recovery.phase1.virtual_session": "recovery.phase1",
    "recovery.phase2.sql_state": "recovery.phase2",
    "engine.recovery": "engine.recovery",
    "server.drain": "server.drain",
    "server.swap": "server.swap",
    "server.restore": "server.restore",
    "timetravel.reconstruct": "timetravel.reconstruct",
    "net.frame": "net.frame",
}


def _slot_types() -> dict[str, type[CounterSet]]:
    """Registry slot → the counter set it holds; ``snapshot()`` reports the
    slots under these names, in this order.  Imported on first use: the
    engine and net modules import :mod:`repro.obs.tracer` at module load,
    so importing them at the top of this module would cycle."""
    from repro.engine.dispatch import DispatchStats
    from repro.engine.locks import LockStats
    from repro.engine.plancache import EngineMetrics, ExecutorStats
    from repro.engine.server import DrainStats, ServerStats
    from repro.engine.timetravel import TimeTravelStats
    from repro.engine.wal import WalStats
    from repro.net.metrics import NetStats, NetworkMetrics

    return {
        "net": NetStats,
        "network": NetworkMetrics,
        "engine": EngineMetrics,
        "executor": ExecutorStats,
        "wal": WalStats,
        "locks": LockStats,
        "server": DrainStats,
        "activity": ServerStats,
        "dispatch": DispatchStats,
        "timetravel": TimeTravelStats,
    }


class MetricsRegistry:
    """Every metrics surface of one system behind one snapshot.

    One attribute per slot of :func:`_slot_types` (``registry.wal``,
    ``registry.network``, ...), each a live :class:`CounterSet`.  The
    registry *owns* them: ``DatabaseServer``, the TCP front end and the
    native driver take their counter sets from the registry they are
    handed, so ``system.registry.snapshot()`` always reflects current
    counters and a crash, which discards the engine, cannot discard them.
    Latency histograms are filled from trace records via
    :meth:`absorb_trace`.
    """

    def __init__(self) -> None:
        slots = _slot_types()
        self._slots = tuple(slots)
        for name, kind in slots.items():
            setattr(self, name, kind())
        self.histograms: dict[str, Histogram] = {}

    def counter_sets(self) -> dict[str, CounterSet]:
        return {name: getattr(self, name) for name in self._slots}

    def histogram(self, name: str, **kwargs) -> Histogram:
        """Get or create the named histogram."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram(**kwargs)
        return hist

    def absorb_trace(self, records: list[dict]) -> int:
        """Fold span durations from a trace into latency histograms.

        Returns the number of spans absorbed.  Keeping this off the hot
        path (derive from the trace, don't record inline) is what lets the
        tracing-on overhead stay within budget.
        """
        absorbed = 0
        for record in records:
            if record.get("kind") != "span":
                continue
            target = _SPAN_HISTOGRAMS.get(record["name"])
            if target is None:
                continue
            duration = record["end"] - record["start"]
            self.histogram(target).record(duration)
            if record["name"] == "wire.send":
                request = record.get("attrs", {}).get("request")
                if request:
                    self.histogram(f"wire.send.{request}").record(duration)
            absorbed += 1
        return absorbed

    def snapshot(self) -> dict:
        out = {name: counters.snapshot() for name, counters in self.counter_sets().items()}
        out["histograms"] = {
            name: hist.snapshot() for name, hist in sorted(self.histograms.items())
        }
        return out

    def reset(self) -> None:
        """The explicit observer-side reset (see module docstring): zeroes
        every counter set (gauges excepted) and drops every histogram."""
        for counters in self.counter_sets().values():
            counters.reset()
        self.histograms.clear()
