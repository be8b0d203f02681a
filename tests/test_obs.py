"""Tests for repro.obs: tracer, histograms, registry, timeline, CLI.

Pins the observability contracts ISSUE 3 introduced:

* a disabled tracer is a true no-op — no records, no id allocation;
* one correlation id survives a crash + recovery and links the client
  statement, the fault, the detection pings, both recovery phases, and the
  engine's restart recovery into a single causal chain;
* histogram bucket edges are the documented log-scale series;
* :class:`RecoveryTimeline` reconstructs phases from a synthetic trace;
* the metrics reset semantics defined in ``repro/obs/metrics.py`` hold:
  counters are cumulative across crash/restart, caches drop, and
  ``reset()`` is the only path back to zero.
"""

from __future__ import annotations

import json

import pytest

import repro
from repro.errors import CommunicationError
from repro.net.faults import FaultKind
from repro.obs import (
    Histogram,
    MetricsRegistry,
    RecoveryTimeline,
    Tracer,
    get_tracer,
    render_tree,
    use_tracer,
)
from repro.obs.metrics import CounterSet
from repro.obs.tracer import load_jsonl


# ------------------------------------------------------------------ tracer


class TestTracerDisabled:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer", key="value") as span:
            span.set(more="attrs")
            tracer.event("inner.event", x=1)
        assert tracer.records == []
        assert tracer.ids_allocated == 0

    def test_disabled_tracer_allocates_no_correlation_ids(self):
        tracer = Tracer(enabled=False)
        assert tracer.new_correlation_id() is None
        assert tracer.ids_allocated == 0

    def test_default_process_tracer_is_disabled(self):
        assert get_tracer().enabled is False

    def test_disabled_workload_leaves_no_trace(self):
        """Running a whole system under an explicit disabled tracer must
        allocate nothing — the zero-cost-off guarantee, end to end."""
        tracer = Tracer(enabled=False)
        with use_tracer(tracer):
            system = repro.make_system()
            connection = system.phoenix.connect(system.DSN)
            cursor = connection.cursor()
            cursor.execute("CREATE TABLE t (k INT PRIMARY KEY)")
            cursor.execute("INSERT INTO t VALUES (1)")
            cursor.execute("SELECT * FROM t")
            assert cursor.fetchall() == [(1,)]
            assert connection.correlation_id is None
            connection.close()
        assert tracer.records == []
        assert tracer.ids_allocated == 0


class TestTracerEnabled:
    def test_span_records_parent_and_corr_inheritance(self):
        tracer = Tracer(enabled=True, seed=7)
        corr = tracer.new_correlation_id()
        assert corr == "s7-c1"
        with tracer.span("outer", corr=corr):
            with tracer.span("inner"):
                tracer.event("leaf")
        spans = [r for r in tracer.records if r["kind"] == "span"]
        events = [r for r in tracer.records if r["kind"] == "event"]
        outer = next(r for r in spans if r["name"] == "outer")
        inner = next(r for r in spans if r["name"] == "inner")
        assert inner["parent"] == outer["id"]
        assert inner["corr"] == corr
        assert events[0]["corr"] == corr
        assert events[0]["parent"] == inner["id"]

    def test_span_error_capture(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        (span,) = tracer.records
        assert span["error"] == "ValueError: boom"

    def test_ids_are_deterministic(self):
        a, b = Tracer(enabled=True, seed=3), Tracer(enabled=True, seed=3)
        for tracer in (a, b):
            with tracer.span("x"):
                tracer.event("y")
        strip = lambda rs: [
            {k: v for k, v in r.items() if k not in ("start", "end", "at")}
            for r in rs
        ]
        assert strip(a.records) == strip(b.records)

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer(enabled=True)
        with tracer.span("a", n=1):
            tracer.event("b")
        path = tmp_path / "trace.jsonl"
        tracer.dump_jsonl(path)
        assert load_jsonl(path) == tracer.records


# ------------------------------------------------------- corr across recovery


class TestCorrelationAcrossRecovery:
    def test_corr_id_survives_crash_and_links_the_whole_chain(self, system):
        tracer = Tracer(enabled=True, seed=1)
        with use_tracer(tracer):
            connection = system.phoenix.connect(system.DSN)
            connection.config.sleep = lambda _s: (
                system.endpoint.restart_server() if not system.server.up else None
            )
            corr = connection.correlation_id
            assert corr is not None
            cursor = connection.cursor()
            cursor.execute("CREATE TABLE t (k INT PRIMARY KEY, v INT)")
            cursor.execute("INSERT INTO t VALUES (1, 10), (2, 20)")
            system.faults.schedule(FaultKind.CRASH_BEFORE_EXECUTE)
            cursor.execute("UPDATE t SET v = 99 WHERE k = 1")
            assert connection.stats.recoveries == 1
            connection.close()

        by_name = {}
        for record in tracer.records:
            by_name.setdefault(record["name"], []).append(record)

        # every link of the causal chain carries the session's corr id
        for name in (
            "client.statement",
            "wire.send",
            "server.dispatch",
            "fault.fired",
            "recovery",
            "recovery.await_server",
            "recovery.ping",
            "recovery.phase1.virtual_session",
            "recovery.phase2.sql_state",
        ):
            assert name in by_name, f"missing {name} records"
            assert any(r["corr"] == corr for r in by_name[name]), name

        # the engine's restart recovery ran *inside* the client's recovery
        # (the injected sleep restarts the server), so it shares the corr
        restart_recoveries = [
            r for r in by_name["engine.recovery"] if r["corr"] == corr
        ]
        assert restart_recoveries, "restart recovery not linked to the session"

        recovery_span = by_name["recovery"][0]
        assert recovery_span["attrs"]["outcome"] == "rebuilt"
        assert recovery_span["corr"] == corr

    def test_spurious_recovery_traced_as_spurious(self, system):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            connection = system.phoenix.connect(system.DSN)
            from repro.errors import TimeoutError as ReproTimeout

            rebuilt = connection.recovery.recover(ReproTimeout("slow server"))
            assert rebuilt is False
            connection.close()
        recovery = next(r for r in tracer.records if r["name"] == "recovery")
        assert recovery["attrs"]["outcome"] == "spurious"
        assert any(r["name"] == "recovery.detect" for r in tracer.records)


# --------------------------------------------------------------- histograms


class TestHistogram:
    def test_bucket_edges_are_log_scale(self):
        hist = Histogram(min_edge=1e-6, base=2.0, buckets=8)
        assert hist.edges == [1e-6 * 2.0**i for i in range(8)]
        assert len(hist.counts) == 9  # + overflow

    def test_values_land_in_documented_buckets(self):
        hist = Histogram(min_edge=1.0, base=10.0, buckets=3)  # edges 1, 10, 100
        hist.record(0.5)  # <= 1 → bucket 0
        hist.record(1.0)  # == edge → bucket 0 (first edge >= v)
        hist.record(5.0)  # bucket 1
        hist.record(99.0)  # bucket 2
        hist.record(1000.0)  # overflow
        assert hist.counts == [2, 1, 1, 1]  # 3 buckets + overflow
        assert hist.n == 5
        assert hist.min == 0.5 and hist.max == 1000.0

    def test_quantile_is_bucket_edge_conservative(self):
        hist = Histogram(min_edge=1.0, base=10.0, buckets=3)
        for v in (0.5, 0.6, 0.7, 50.0):
            hist.record(v)
        assert hist.quantile(0.5) == 1.0  # half the mass is under edge 1
        assert hist.quantile(1.0) == 100.0  # all mass under edge 100

    def test_reset_and_snapshot(self):
        hist = Histogram()
        hist.record(0.001)
        assert hist.snapshot()["count"] == 1
        hist.reset()
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["min"] == 0.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Histogram(min_edge=0.0)
        with pytest.raises(ValueError):
            Histogram(base=1.0)
        hist = Histogram()
        with pytest.raises(ValueError):
            hist.quantile(0.0)


# ----------------------------------------------------------------- registry


class TestMetricsRegistry:
    def test_absorb_trace_builds_latency_histograms(self):
        tracer = Tracer(enabled=True)
        with tracer.span("wire.send", request="ExecuteRequest"):
            pass
        with tracer.span("engine.stmt", stmt="Select"):
            pass
        with tracer.span("uninteresting"):
            pass
        registry = MetricsRegistry()
        assert registry.absorb_trace(tracer.records) == 2
        snap = registry.snapshot()
        assert snap["histograms"]["wire.send"]["count"] == 1
        assert snap["histograms"]["wire.send.ExecuteRequest"]["count"] == 1
        assert snap["histograms"]["engine.stmt"]["count"] == 1
        assert "uninteresting" not in snap["histograms"]

    def test_system_registry_adopts_live_counters(self, system):
        connection = system.plain.connect(system.DSN)
        cursor = connection.cursor()
        cursor.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        connection.close()
        snap = system.registry.snapshot()
        assert snap["network"]["round_trips"] == system.metrics.round_trips
        assert snap["network"]["round_trips"] > 0
        assert snap["engine"] == system.server.engine_metrics.snapshot()

    def test_counters_cumulative_across_crash_caches_drop(self, system):
        """The canonical reset-semantics contract (repro/obs/metrics.py):
        crash/restart must not zero counters, but must drop caches."""
        loader = system.server.connect()
        system.server.execute(loader, "CREATE TABLE t (k INT PRIMARY KEY)")
        system.server.execute(loader, "SELECT * FROM t")
        system.server.execute(loader, "SELECT * FROM t")  # parse-cache hit
        metrics = system.server.engine_metrics
        hits_before = metrics.parse_hits
        misses_before = metrics.parse_misses
        assert hits_before > 0

        system.server.crash()
        system.endpoint.restart_server()

        # counters survived the crash untouched
        assert metrics.parse_hits == hits_before
        assert metrics.parse_misses == misses_before
        # ... but the parse cache itself dropped: the same SQL misses cold
        session = system.server.connect()
        system.server.execute(session, "SELECT * FROM t")
        assert metrics.parse_misses == misses_before + 1

        # reset() is the explicit observer action back to zero
        system.registry.reset()
        assert metrics.parse_hits == 0
        assert system.metrics.round_trips == 0


# ---------------------------------------------------- the CounterSet contract


def _all_counter_sets() -> list[type[CounterSet]]:
    found, pending = [], [CounterSet]
    while pending:
        for kind in pending.pop().__subclasses__():
            found.append(kind)
            pending.append(kind)
    return sorted(found, key=lambda kind: kind.__name__)


def _a_counter(kind: type[CounterSet]) -> str:
    return next(
        name for name, zero in kind._zeros.items()
        if name not in kind._gauges and isinstance(zero, (int, float))
    )


@pytest.mark.parametrize("kind", _all_counter_sets(), ids=lambda kind: kind.__name__)
class TestCounterSetContract:
    """The contract of ``repro/obs/metrics.py``, once for every stats class
    (the eleven of them, and any added later)."""

    def test_snapshot_lists_every_declared_field(self, kind):
        stats = kind()
        assert kind._zeros, "a counter set must declare its fields"
        assert set(kind._zeros) <= set(stats.snapshot())
        assert all(stats.snapshot()[name] == zero for name, zero in kind._zeros.items())

    def test_reset_zeroes_counters_and_leaves_gauges(self, kind):
        stats = kind()
        counter = _a_counter(kind)
        setattr(stats, counter, getattr(stats, counter) + 3)
        assert stats.snapshot()[counter] == 3  # a counter moved, plainly
        for name in kind._gauges:
            setattr(stats, name, 7)
        stats.reset()
        assert getattr(stats, counter) == 0
        assert all(getattr(stats, name) == 7 for name in kind._gauges)

    def test_merge_adds_counters(self, kind):
        a, b = kind(), kind()
        counter = _a_counter(kind)
        setattr(a, counter, 3)
        setattr(b, counter, 4)
        for name in kind._gauges:
            setattr(b, name, 7)
        a.merge(b)
        assert getattr(a, counter) == 7
        assert getattr(b, counter) == 4
        assert all(getattr(a, name) == kind._zeros[name] for name in kind._gauges)

    def test_cumulative_across_crash_and_restart(self, kind, system, phoenix_conn):
        """A crash discards the engine, never a counter: every live counter
        set is the same object afterwards and none of its counters went
        down.  A stats class no live system feeds fails here."""
        cursor = phoenix_conn.cursor()
        cursor.execute("CREATE TABLE t (k INT PRIMARY KEY)")
        cursor.execute("INSERT INTO t VALUES (1)")
        live = {type(c): c for c in system.registry.counter_sets().values()}
        live[type(phoenix_conn.stats)] = phoenix_conn.stats
        stats = live[kind]
        counter = _a_counter(kind)
        setattr(stats, counter, getattr(stats, counter) + 1000)
        before = stats.snapshot()

        system.server.crash()
        cursor.execute("SELECT k FROM t")  # recovers the session on the way
        assert cursor.fetchall() == [(1,)]

        live_after = {type(c): c for c in system.registry.counter_sets().values()}
        live_after[type(phoenix_conn.stats)] = phoenix_conn.stats
        assert live_after[kind] is stats
        after = stats.snapshot()
        assert after[counter] >= 1000
        for name in kind._zeros:
            if name not in kind._gauges and isinstance(before[name], (int, float)):
                assert after[name] >= before[name], name


def test_server_and_dispatch_counters_are_in_the_registry_snapshot(system):
    connection = system.plain.connect(system.DSN)
    connection.cursor().execute("CREATE TABLE t (k INT PRIMARY KEY)")
    connection.close()
    snap = system.registry.snapshot()
    assert snap["activity"]["statements"] >= 1 and snap["activity"]["connects"] >= 1
    assert snap["dispatch"]["dispatched"] >= 1 and snap["dispatch"]["peak_workers"] >= 1
    system.registry.reset()
    assert system.server.stats.statements == 0
    assert system.server.dispatcher.stats.dispatched == 0
    assert system.server.dispatcher.stats.peak_workers >= 1  # a gauge


def test_drain_stats_merge_keeps_the_longest_pause():
    from repro.engine.server import DrainStats

    a, b = DrainStats(), DrainStats()
    a.max_pause_seconds, b.max_pause_seconds = 0.2, 0.5
    a.merge(b)
    assert a.max_pause_seconds == 0.5


# ----------------------------------------------------------------- timeline


def _synthetic_recovery_records(corr: str = "s0-c1") -> list[dict]:
    """A hand-built trace shaped like one rebuilt recovery."""
    span = lambda id_, parent, name, start, end, **attrs: {
        "kind": "span", "id": id_, "parent": parent, "corr": corr,
        "name": name, "start": start, "end": end, "error": None, "attrs": attrs,
    }
    event = lambda id_, parent, name, at, **attrs: {
        "kind": "event", "id": id_, "parent": parent, "corr": corr,
        "name": name, "at": at, "attrs": attrs,
    }
    return [
        event(3, 2, "recovery.ping", 10.1, ok=False),
        event(4, 2, "recovery.ping", 10.3, ok=True),
        span(2, 1, "recovery.await_server", 10.0, 10.4),
        span(5, 1, "recovery.phase1.virtual_session", 10.4, 10.7),
        span(6, 1, "recovery.phase2.sql_state", 10.7, 10.9),
        span(1, None, "recovery", 10.0, 10.9, cause="CommunicationError",
             outcome="rebuilt"),
    ]


class TestRecoveryTimeline:
    def test_reconstructs_phases_from_synthetic_trace(self):
        timeline = RecoveryTimeline.from_records(_synthetic_recovery_records())
        assert len(timeline.recoveries) == 1
        view = timeline.recoveries[0]
        assert view.outcome == "rebuilt"
        assert view.pings == 2
        assert view.duration == pytest.approx(0.9)
        assert view.phase_seconds("recovery.await_server") == pytest.approx(0.4)
        assert view.phase_seconds(
            "recovery.phase1.virtual_session"
        ) == pytest.approx(0.3)
        assert view.phase_seconds("recovery.phase2.sql_state") == pytest.approx(0.2)

    def test_corr_filter_excludes_other_sessions(self):
        records = _synthetic_recovery_records("s0-c1")
        timeline = RecoveryTimeline.from_records(records, corr="s0-c9")
        assert timeline.recoveries == []

    def test_render_mentions_phases(self):
        timeline = RecoveryTimeline.from_records(_synthetic_recovery_records())
        text = timeline.render()
        assert "phase 1: virtual session" in text
        assert "phase 2: SQL state" in text
        assert "2 ping(s)" in text

    def test_render_tree_shows_hierarchy_and_corr(self):
        text = render_tree(_synthetic_recovery_records())
        lines = text.splitlines()
        assert lines[0].startswith("recovery ")
        assert any(line.startswith("  recovery.await_server") for line in lines)
        assert "[s0-c1]" in lines[0]


# ---------------------------------------------------------------------- CLI


class TestObsCli:
    def test_cli_renders_recovery_timeline(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--fault", "crash_before_execute@10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "recovery" in out
        assert "phase 1: virtual session" in out
        assert "s3-c" in out  # seeded corr ids

    def test_cli_jsonl_export_and_reload(self, tmp_path, capsys):
        from repro.obs.__main__ import main

        path = tmp_path / "t.jsonl"
        assert main(["--export", str(path), "--timeline-only"]) == 0
        capsys.readouterr()
        records = load_jsonl(path)
        assert any(r["name"] == "recovery" for r in records)
        assert main(["--load", str(path)]) == 0
        assert "recovery" in capsys.readouterr().out

    def test_cli_jsonl_mode_emits_parseable_lines(self, capsys):
        from repro.obs.__main__ import main

        assert main(["--jsonl"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line.strip()]
        assert lines
        for line in lines:
            json.loads(line)


# ------------------------------------------------------------- chaos wiring


class TestChaosTracing:
    def test_run_trace_captures_and_restores_tracer(self):
        from repro.chaos.trace import probe_dml_trace, run_trace

        before = get_tracer()
        tracer = Tracer(enabled=True, seed=5)
        record = run_trace(
            probe_dml_trace(),
            ((10, FaultKind.CRASH_BEFORE_EXECUTE),),
            tracer=tracer,
        )
        assert get_tracer() is before
        assert record.completed
        assert record.recoveries == 1
        timeline = RecoveryTimeline.from_records(tracer.records)
        assert len(timeline.recoveries) == 1
        assert timeline.recoveries[0].outcome == "rebuilt"
