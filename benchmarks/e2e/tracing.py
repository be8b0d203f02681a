"""Spans recorded from outside the program.

``install`` wraps the public callables at each layer boundary of ``repro``
with a recorder that keeps ``[name, start, end, parent, request]`` in
memory; nothing inside the package changes and ``repro.obs`` stays off.
With one client in a closed loop at most one wire request is in flight, so
spans opened on the server's threads (event loop, dispatch worker) join the
client's open ``net.send`` span.  A layer's *self* time is its span minus
the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import threading
import time

from harness import PHOENIX, PLAIN, SliceRecord, at_reference, percentile

NAME, START, END, PARENT, REQUEST, SLICE, STATEMENT = range(7)

#: (module, attribute path, span name); the span name's prefix is its layer
TARGETS = [
    ("repro.core.cursor", "PhoenixCursor.execute", "core.execute"),
    ("repro.core.cursor", "PhoenixCursor.executemany", "core.executemany"),
    ("repro.core.cursor", "PhoenixCursor.fetchmany", "core.fetch"),
    ("repro.core.cursor", "PhoenixCursor.fetchall", "core.fetch"),
    ("repro.core.connection", "PhoenixConnection.begin", "core.begin"),
    ("repro.core.connection", "PhoenixConnection.commit", "core.commit"),
    ("repro.core.connection", "PhoenixConnection.close", "core.close"),
    ("repro.core.driver_manager", "PhoenixDriverManager.connect", "core.connect"),
    ("repro.odbc.driver_manager", "Statement.execute", "odbc.execute"),
    ("repro.odbc.driver_manager", "Statement.executemany", "odbc.executemany"),
    ("repro.odbc.driver_manager", "Statement.fetchmany", "odbc.fetch"),
    ("repro.odbc.driver_manager", "Statement.fetchall", "odbc.fetch"),
    ("repro.odbc.driver_manager", "Connection.begin", "odbc.begin"),
    ("repro.odbc.driver_manager", "Connection.commit", "odbc.commit"),
    ("repro.odbc.driver_manager", "Connection.close", "odbc.close"),
    ("repro.odbc.driver_manager", "DriverManager.connect", "odbc.connect"),
    ("repro.odbc.driver", "DriverConnection.execute", "odbc.driver.execute"),
    ("repro.odbc.driver", "DriverConnection.execute_batch", "odbc.driver.execute_batch"),
    ("repro.odbc.driver", "DriverConnection.fetch", "odbc.driver.fetch"),
    ("repro.odbc.driver", "DriverConnection.advance", "odbc.driver.advance"),
    ("repro.odbc.driver", "DriverConnection.disconnect", "odbc.driver.disconnect"),
    ("repro.odbc.driver", "NativeDriver.connect", "odbc.driver.connect"),
    ("repro.odbc.driver", "NativeDriver.ping", "odbc.driver.ping"),
    ("repro.net.transport", "encode_message", "net.codec"),
    ("repro.net.transport", "decode_message", "net.codec"),
    ("repro.net.transport", "ServerEndpoint.submit", "net.endpoint"),
    ("repro.engine.server", "DatabaseServer.execute", "engine.server.execute"),
    ("repro.engine.server", "DatabaseServer.execute_batch", "engine.server.execute_batch"),
    ("repro.engine.server", "DatabaseServer.fetch", "engine.server.fetch"),
    ("repro.engine.server", "DatabaseServer.advance", "engine.server.advance"),
    ("repro.engine.server", "DatabaseServer.connect", "engine.server.connect"),
    ("repro.engine.server", "DatabaseServer.disconnect", "engine.server.disconnect"),
    ("repro.engine.server", "DatabaseServer.restart", "engine.recovery.restart"),
    # parse_script is imported by name, so each importer's binding is wrapped
    ("repro.engine.server", "parse_script", "sql.parse"),
    ("repro.engine.executor", "parse_script", "sql.parse"),
    ("repro.core.cursor", "parse_script", "sql.parse"),
    ("repro.core.interceptor", "parse_script", "sql.parse"),
    ("repro.sql", "parse", "sql.parse"),
    ("repro.engine.executor", "Executor.execute", "engine.executor"),
    ("repro.engine.locks", "LockManager.acquire", "engine.locks.acquire"),
    ("repro.engine.wal", "WriteAheadLog.append", "engine.wal.append"),
    ("repro.engine.wal", "WriteAheadLog.force", "engine.wal.force"),
    ("repro.engine.wal", "WriteAheadLog.group_force", "engine.wal.group_force"),
    ("repro.engine.wal", "WriteAheadLog.append_forced", "engine.wal.append_forced"),
    ("harness", "CountingFileStorage.append_log", "engine.storage.append_log"),
    ("harness", "CountingFileStorage.write_table_file", "engine.storage.write_table_file"),
]

#: layer = longest matching prefix; the ledger lists them in this order
LAYERS = [
    "core.recovery",
    "core",
    "odbc",
    "net.codec",
    "net",
    "engine.dispatch",
    "engine.server",
    "sql",
    "engine.executor",
    "engine.locks",
    "engine.wal",
    "engine.storage",
    "engine.recovery",
]


def layer_of(name: str) -> str:
    return next(layer for layer in LAYERS if name == layer or name.startswith(layer + "."))


class Recorder:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        #: (core.recovery span, phase-1 seconds, phase-2 seconds)
        self.recoveries: list[tuple] = []
        #: index of the slice being measured; None outside slices
        self.slice: int | None = None
        #: True while the harness times an application call
        self.in_statement = False
        self._client = threading.get_ident()
        self._local = threading.local()
        self._in_flight: list | None = None

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def begin(self, name: str, parent: list | None = None) -> list:
        stack = self._stack()
        if parent is None:
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._client:
                parent = self._in_flight
        span = [name, 0.0, 0.0, parent, None, self.slice, False]
        if parent is None:
            span[REQUEST] = span
            span[STATEMENT] = self.in_statement
        else:
            span[REQUEST] = parent[REQUEST]
        stack.append(span)
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()

    def wrap(self, original, name: str):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            span = self.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                self.end(span)

        return traced

    # -- the three boundaries that need more than a plain span ----------------

    def wrap_send(self, original):
        """``ClientChannel.send``: server-side spans join it while it is open."""

        @functools.wraps(original)
        def send(channel, request):
            if not self.enabled:
                return original(channel, request)
            span = self.begin("net.send")
            self._in_flight = span
            try:
                return original(channel, request)
            finally:
                self._in_flight = None
                self.end(span)

        return send

    def wrap_dispatch(self, original):
        """``SessionDispatcher.submit``: the wait from submit to worker start
        is the dispatch layer's span; the work itself runs as ``net.serve``."""

        @functools.wraps(original)
        def submit(dispatcher, key, fn, callback):
            if not self.enabled:
                return original(dispatcher, key, fn, callback)
            parent = self._in_flight
            enqueued = time.perf_counter()

            def serve():
                wait = self.begin("engine.dispatch.queue_wait", parent)
                wait[START] = enqueued
                self.end(wait)
                span = self.begin("net.serve", parent)
                try:
                    return fn()
                finally:
                    self.end(span)

            return original(dispatcher, key, serve, callback)

        return submit

    def wrap_recover(self, original):
        """``PhoenixRecovery.recover``: phase times come from PhoenixStats."""

        @functools.wraps(original)
        def recover(recovery, cause, **kwargs):
            if not self.enabled:
                return original(recovery, cause, **kwargs)
            span = self.begin("core.recovery")
            try:
                return original(recovery, cause, **kwargs)
            finally:
                self.end(span)
                stats = recovery.connection.stats
                self.recoveries.append(
                    (span, stats.last_virtual_session_seconds, stats.last_sql_state_seconds)
                )

        return recover

    def install(self) -> None:
        def patch(module_name, path, make):
            owner = importlib.import_module(module_name)
            *holders, attr = path.split(".")
            for holder in holders:
                owner = getattr(owner, holder)
            setattr(owner, attr, make(getattr(owner, attr)))

        for module_name, path, name in TARGETS:
            patch(module_name, path, lambda original, name=name: self.wrap(original, name))
        patch("repro.net.transport", "ClientChannel.send", self.wrap_send)
        patch("repro.engine.dispatch", "SessionDispatcher.submit", self.wrap_dispatch)
        patch("repro.core.recovery", "PhoenixRecovery.recover", self.wrap_recover)

    def write(self, path: str) -> None:
        index = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w") as out:
            for span in self.spans:
                parent = span[PARENT]
                json.dump(
                    {
                        "name": span[NAME],
                        "start": span[START],
                        "end": span[END],
                        "parent": None if parent is None else index[id(parent)],
                        "request": index[id(span[REQUEST])],
                        "slice": span[SLICE],
                    },
                    out,
                )
                out.write("\n")


def _self_seconds(span: list, children: list[list]) -> float:
    """Span duration minus the union of its children's intervals."""
    covered = 0.0
    reach = span[START]
    for child in sorted(children, key=lambda c: c[START]):
        start, end = max(child[START], reach), min(child[END], span[END])
        if end > start:
            covered += end - start
            reach = end
    return span[END] - span[START] - covered


def analyse(recorder: Recorder, records: list[SliceRecord], dep, untraced_throughput: float):
    """Per-layer metrics of the traced Phoenix slices, plus the self-time
    ledger for both sides.  Returns ``(metrics, ledger)``."""
    by_index = {r.index: r for r in records if r.traced}
    children: dict[int, list[list]] = {}
    for span in recorder.spans:
        if span[PARENT] is not None:
            children.setdefault(id(span[PARENT]), []).append(span)

    # layer self time per side, statements and session open/close apart
    self_ms = {side: dict.fromkeys(LAYERS, 0.0) for side in (PHOENIX, PLAIN)}
    session_ms = {PHOENIX: 0.0, PLAIN: 0.0}
    raw_attributed = 0.0
    calls = {"sql.parse": 0, "odbc.driver": 0}
    forces: list[float] = []
    for span in recorder.spans:
        record = by_index.get(span[SLICE])
        if record is None:
            continue
        own = _self_seconds(span, children.get(id(span), ()))
        layer = layer_of(span[NAME])
        # at reference speed, as the end-to-end metrics: the storage layer's
        # spans are the device writes, everything else is processor time
        device = own if layer == "engine.storage" else 0.0
        own_ms = at_reference(own, device, record.speed) * 1e3
        if not span[REQUEST][STATEMENT]:
            session_ms[record.side] += own_ms
            continue
        self_ms[record.side][layer] += own_ms
        if record.side == PHOENIX:
            raw_attributed += own
            if span[NAME] == "sql.parse":
                calls["sql.parse"] += 1
            elif span[NAME].startswith("odbc.driver."):
                calls["odbc.driver"] += 1
            elif span[NAME] == "engine.storage.append_log":
                forces.append((span[END] - span[START]) * 1e3)

    traced = {side: [r for r in by_index.values() if r.side == side] for side in (PHOENIX, PLAIN)}
    statements = {side: sum(r.log.statements for r in rs) for side, rs in traced.items()}
    per_op = {
        side: {layer: total / statements[side] for layer, total in layers.items()}
        for side, layers in self_ms.items()
    }
    phoenix = traced[PHOENIX]
    ops = statements[PHOENIX]
    raw_end_to_end = sum(s.seconds for r in phoenix for s in r.log.samples)

    def delta(counter: str) -> float:
        return sum(r.delta[counter] for r in phoenix)

    def rate(hits: str, misses: str) -> float:
        total = delta(hits) + delta(misses)
        return delta(hits) / total if total else 0.0

    # recovery phases: await = recover() minus both phases minus the engine
    # restart the watchdog performed inside it
    awaits, phase1, phase2 = [], [], []
    for span, first, second in recorder.recoveries:
        record = by_index.get(span[SLICE])
        if record is None:
            continue
        restart = sum(
            c[END] - c[START]
            for c in children.get(id(span), ())
            if c[NAME] == "engine.recovery.restart"
        )
        awaits.append(
            at_reference(span[END] - span[START] - first - second - restart, 0.0, record.speed)
        )
        phase1.append(at_reference(first, 0.0, record.speed))
        phase2.append(at_reference(second, 0.0, record.speed))

    # checkpoints and restarts happen between slices: the run's median speed
    speed = tuple(statistics.median(r.speed[i] for r in phoenix) for i in (0, 1))

    def median_ms(seconds: list[float]) -> float:
        return at_reference(statistics.median(seconds), 0.0, speed) * 1e3 if seconds else 0.0

    def p50_ms(seconds: list[float]) -> float:
        return percentile(seconds, 0.5) * 1e3 if seconds else 0.0

    traced_throughput = 1.0 / statistics.median(r.session_seconds / r.log.statements for r in phoenix)
    p = per_op[PHOENIX]
    metrics = {
        "core.self_ms_per_op": (p["core"], "ms"),
        "core.wire_requests_per_op": (calls["odbc.driver"] / ops, "count"),
        "odbc.self_ms_per_op": (p["odbc"], "ms"),
        "net.codec_ms_per_op": (p["net.codec"], "ms"),
        "net.wire_ms_per_op": (p["net"], "ms"),
        "net.bytes_per_op": (delta("net_bytes") / ops, "bytes"),
        "net.round_trips_per_op": (delta("round_trips") / ops, "count"),
        "engine.dispatch.queue_wait_ms_per_op": (p["engine.dispatch"], "ms"),
        "engine.server.self_ms_per_op": (p["engine.server"], "ms"),
        "sql.parse_ms_per_op": (p["sql"], "ms"),
        "sql.parse_calls_per_op": (calls["sql.parse"] / ops, "count"),
        "engine.plancache.parse_hit_rate": (rate("parse_hits", "parse_misses"), "ratio"),
        "engine.plancache.plan_hit_rate": (rate("plan_hits", "plan_misses"), "ratio"),
        "engine.executor.self_ms_per_op": (p["engine.executor"], "ms"),
        "engine.executor.rows_scanned_per_row_returned": (
            delta("rows_scanned") / max(delta("rows_returned"), 1),
            "ratio",
        ),
        "engine.locks.acquire_ms_per_op": (p["engine.locks"], "ms"),
        "engine.locks.acquires_per_op": (delta("lock_acquires") / ops, "count"),
        "engine.locks.waits": (sum(r.delta["lock_waits"] for r in records), "count"),
        "engine.wal.append_ms_per_op": (p["engine.wal"], "ms"),
        "engine.wal.records_per_op": (delta("wal_records") / ops, "count"),
        "engine.wal.bytes_per_op": (delta("wal_bytes") / ops, "bytes"),
        "engine.wal.forces_per_op": (delta("wal_force_calls") / ops, "count"),
        "engine.storage.append_log_ms_per_op": (p["engine.storage"], "ms"),
        "engine.storage.force_p50_ms": (percentile(forces, 0.5) if forces else 0.0, "ms"),
        "engine.storage.checkpoint_ms": (median_ms(dep.checkpoints), "ms"),
        "engine.storage.table_file_bytes": (dep.device.table_file_bytes, "bytes"),
        "engine.recovery.restart_p50_ms": (median_ms(dep.restarts), "ms"),
        "engine.recovery.records_replayed_per_restart": (
            dep.records_replayed / len(dep.restarts) if dep.restarts else 0.0,
            "count",
        ),
        "core.recovery.await_p50_ms": (p50_ms(awaits), "ms"),
        "core.recovery.phase1_p50_ms": (p50_ms(phase1), "ms"),
        "core.recovery.phase2_p50_ms": (p50_ms(phase2), "ms"),
        "trace.unattributed_share": (1.0 - raw_attributed / raw_end_to_end, "ratio"),
        "trace.overhead_ratio": (untraced_throughput / traced_throughput, "ratio"),
    }
    ledger = {
        "layers_ms_per_op": per_op,
        "session_ms_per_op": {side: session_ms[side] / statements[side] for side in session_ms},
        "statement_ms_per_op": {
            side: sum(r.sample_seconds(s) for r in rs for s in r.log.samples) * 1e3 / statements[side]
            for side, rs in traced.items()
        },
        "per_op_counts": {
            side: {
                counter: sum(r.delta[counter] for r in rs) / statements[side]
                for counter in ("round_trips", "net_bytes", "wal_bytes", "wal_forces", "wal_records")
            }
            for side, rs in traced.items()
        },
    }
    return metrics, ledger
