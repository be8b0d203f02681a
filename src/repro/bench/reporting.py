"""Render the paper's tables and figures as text, and a small CLI.

Usage::

    python -m repro.bench.reporting table1 [--sf 0.001] [--reps 3]
    python -m repro.bench.reporting fig2
    python -m repro.bench.reporting plancache --json BENCH_plan_cache.json
    python -m repro.bench.reporting executor --json BENCH_executor.json
    python -m repro.bench.reporting wirebatch --json BENCH_wire_batch.json
    python -m repro.bench.reporting obs_overhead --json BENCH_obs_overhead.json
    python -m repro.bench.reporting recovery_breakdown
    python -m repro.bench.reporting concurrency --json BENCH_concurrency.json
    python -m repro.bench.reporting plannedrestart --json BENCH_planned_restart.json
    python -m repro.bench.reporting timetravel --json BENCH_time_travel.json
    python -m repro.bench.reporting tcp --json BENCH_tcp.json
    python -m repro.bench.reporting all

Output mirrors the paper's layout: Table 1's columns are query id, result
rows, native seconds, Phoenix seconds, difference, ratio; Figure 2 prints
the two stacked components per result size (the figure's bars) plus the
recompute comparison discussed in §4.  ``plancache`` runs the engine-cache
ablation (cache on vs off) and reports the EngineMetrics hit rates.

``--json PATH`` additionally writes every artifact produced by the run as
one machine-readable JSON document (``BENCH_*.json`` convention), so perf
results accumulate as comparable artifacts across revisions.
"""

from __future__ import annotations

import argparse
import json

from repro.bench.harness import (
    AvailabilityResult,
    ChaosResult,
    ConcurrencyResult,
    ExecutorRun,
    Fig2Series,
    ObsOverheadResult,
    PlanCacheRun,
    PlannedRestartResult,
    RecoveryBreakdownRow,
    Table1Row,
    TcpServingResult,
    TimeTravelResult,
    WireBatchResult,
    executor_speedup,
    run_availability_experiment,
    run_chaos_experiment,
    run_concurrency,
    run_executor_ablation,
    run_fig2_recovery_sweep,
    run_obs_overhead,
    run_plan_cache_ablation,
    run_planned_restart,
    run_recovery_breakdown,
    run_table1_power_comparison,
    run_tcp_serving,
    run_time_travel,
    run_wire_batch,
)

__all__ = [
    "render_table1",
    "render_fig2",
    "render_availability",
    "render_plan_cache",
    "render_executor",
    "render_wire_batch",
    "render_chaos",
    "render_obs_overhead",
    "render_recovery_breakdown",
    "render_concurrency",
    "render_planned_restart",
    "render_time_travel",
    "render_tcp_serving",
    "main",
]


def render_table1(rows: list[Table1Row]) -> str:
    """ASCII Table 1 (paper §4)."""
    lines = [
        "Table 1. TPC-H power test: native ODBC vs Phoenix/ODBC",
        f"{'Query/Update':14} {'Rows':>8} {'Native (s)':>12} {'Phoenix (s)':>12} "
        f"{'Diff (s)':>10} {'Ratio':>7}",
    ]
    for row in rows:
        lines.append(
            f"{row.name:14} {row.result_rows:>8} {row.native_seconds:>12.4f} "
            f"{row.phoenix_seconds:>12.4f} {row.difference:>10.4f} {row.ratio:>7.3f}"
        )
    return "\n".join(lines)


def render_fig2(series: Fig2Series) -> str:
    """Figure 2 as a table + bar sketch (stacked components per size)."""
    lines = [
        "Figure 2. Elapsed time for session recovery over varying result sizes",
        f"{'Result size':>11} {'Virtual (s)':>12} {'SQL state (s)':>14} "
        f"{'Fetch (s)':>10} {'Recovery (s)':>13} {'Recompute (s)':>14} {'Rec/Comp':>9}",
    ]
    for point in series.points:
        lines.append(
            f"{point.result_size:>11} {point.virtual_session_seconds:>12.4f} "
            f"{point.sql_state_seconds:>14.4f} {point.outstanding_fetch_seconds:>10.4f} "
            f"{point.recovery_seconds:>13.4f} {point.recompute_seconds:>14.4f} "
            f"{point.recovery_vs_recompute:>9.3f}"
        )
    lines.append("")
    scale = max((p.recovery_seconds for p in series.points), default=1.0) or 1.0
    for point in series.points:
        virtual = int(40 * point.virtual_session_seconds / scale)
        sql_state = int(40 * point.sql_state_seconds / scale)
        lines.append(
            f"{point.result_size:>6} |{'V' * max(virtual, 1)}{'S' * max(sql_state, 1)}"
        )
    lines.append("        V = virtual session, S = SQL state (stacked, like the figure)")
    return "\n".join(lines)


def render_availability(results: dict[str, AvailabilityResult]) -> str:
    """Experiment AV: session completion under periodic crashes."""
    lines = [
        "Experiment AV. Application availability under periodic server crashes",
        f"{'Driver':10} {'Sessions':>9} {'Completed':>10} {'Availability':>13} {'Crashes seen':>13}",
    ]
    for result in results.values():
        lines.append(
            f"{result.driver:10} {result.sessions_total:>9} {result.sessions_completed:>10} "
            f"{result.availability:>12.0%} {result.crashes:>13}"
        )
    return "\n".join(lines)


def render_plan_cache(runs: list[PlanCacheRun]) -> str:
    """The engine-cache ablation: cache on vs off, with hit rates."""
    lines = [
        "Ablation. Statement/plan cache on vs off",
        f"{'Workload':15} {'Cache':>5} {'Seconds':>9} {'Stmts':>6} {'Stmt/s':>9} "
        f"{'Parse hit%':>11} {'Plan hit%':>10} {'Invalid.':>9}",
    ]
    for run in runs:
        lines.append(
            f"{run.workload:15} {run.cache:>5} {run.seconds:>9.4f} {run.statements:>6} "
            f"{run.statements_per_second:>9.1f} "
            f"{run.metrics['parse_hit_rate']:>10.0%} {run.metrics['plan_hit_rate']:>9.0%} "
            f"{run.metrics['plan_invalidations']:>9.0f}"
        )
    by_cell = {(r.workload, r.cache): r for r in runs}
    for workload in dict.fromkeys(r.workload for r in runs):
        on, off = by_cell.get((workload, "on")), by_cell.get((workload, "off"))
        if on is None or off is None:
            continue
        speedup = off.seconds / on.seconds if on.seconds > 0 else float("inf")
        match = "identical" if on.fingerprint == off.fingerprint else "MISMATCH"
        lines.append(f"{workload}: speedup {speedup:.2f}x, results {match}")
    return "\n".join(lines)


def render_executor(runs: list[ExecutorRun]) -> str:
    """The executor ablation: compiled/vectorized vs interpreted baseline."""
    lines = [
        "Ablation. Vectorized executor vs interpreted baseline",
        f"{'Workload':12} {'Executor':>12} {'Seconds':>9} {'Stmts':>6} {'Stmt/s':>9} "
        f"{'Scanned':>9} {'Returned':>9} {'EqProbe':>8} {'Range':>6} {'TopK':>5}",
    ]
    for run in runs:
        lines.append(
            f"{run.workload:12} {run.executor:>12} {run.seconds:>9.4f} "
            f"{run.statements:>6} {run.statements_per_second:>9.1f} "
            f"{run.counters['rows_scanned']:>9} {run.counters['rows_returned']:>9} "
            f"{run.counters['index_eq_probes']:>8} "
            f"{run.counters['index_range_scans']:>6} "
            f"{run.counters['topk_shortcuts']:>5}"
        )
    by_cell = {(r.workload, r.executor): r for r in runs}
    for workload in dict.fromkeys(r.workload for r in runs):
        compiled = by_cell.get((workload, "compiled"))
        interpreted = by_cell.get((workload, "interpreted"))
        if compiled is None or interpreted is None:
            continue
        match = (
            "identical"
            if compiled.fingerprint == interpreted.fingerprint
            else "MISMATCH"
        )
        lines.append(
            f"{workload}: speedup {executor_speedup(runs, workload):.2f}x, "
            f"results {match}"
        )
    return "\n".join(lines)


def render_wire_batch(result: WireBatchResult) -> str:
    """Experiment WB: wire batching + group commit vs one trip per DML."""
    lines = [
        "Experiment WB. Wire batching + WAL group commit (executemany DML)",
        f"{result.rows} rows x 2 statements each; batched mode sends "
        f"{result.batch_size} wrapped statements per request",
        f"{'Mode':10} {'Trial':>5} {'Seconds':>9} {'Trips':>6} {'BatchReqs':>10} "
        f"{'Batched':>8} {'Forces':>7} {'Group':>6} {'Coalesced':>10}",
    ]
    for run in result.runs:
        lines.append(
            f"{run.mode:10} {run.trial:>5} {run.seconds:>9.4f} {run.round_trips:>6} "
            f"{run.batch_requests:>10} {run.requests_batched:>8} {run.wal_forces:>7} "
            f"{run.group_forces:>6} {run.forces_coalesced:>10}"
        )
    match = "identical" if result.fingerprints_match else "MISMATCH"
    lines.append(
        f"round trips {result.trip_ratio:.1f}x fewer, WAL forces "
        f"{result.force_ratio:.1f}x fewer; durable state {match}"
    )
    return "\n".join(lines)


def render_chaos(result: ChaosResult) -> str:
    """Experiment CH: the crash-schedule sweep with the exactly-once oracle."""
    lines = [
        "Experiment CH. Crash-schedule sweep vs the exactly-once oracle",
        f"golden run: {result.golden_requests} wire requests; seed {result.seed}; "
        f"{result.runs} faulted runs in {result.elapsed_seconds:.1f}s",
        f"{'Fault kind':22} {'Runs':>5} {'Recovered':>10} {'Recoveries':>11}",
    ]
    for kind, cell in result.by_kind.items():
        lines.append(
            f"{kind:22} {cell['runs']:>5.0f} {cell['recovered_fraction']:>9.0%} "
            f"{cell['recoveries']:>11.0f}"
        )
    lines.append(
        f"overall: {result.recovered_fraction:.1%} recovered, "
        f"{result.total_recoveries} recoveries "
        f"(phase 1 mean {result.mean_virtual_session_seconds * 1e3:.3f} ms, "
        f"phase 2 mean {result.mean_sql_state_seconds * 1e3:.3f} ms)"
    )
    for failure in result.failures:
        lines.append(f"FAILING {failure['schedule']}: {failure['violations']}")
    return "\n".join(lines)


def render_obs_overhead(result: ObsOverheadResult) -> str:
    """Experiment OBS: tracing overhead on the phoenix-trace workload."""
    match = (
        "identical"
        if len(set(result.fingerprints.values())) == 1
        else "MISMATCH"
    )
    lines = [
        "Experiment OBS. Tracing overhead (phoenix trace workload)",
        f"{'Mode':10} {'Seconds':>9} {'Ratio':>7}",
        f"{'baseline':10} {result.baseline_seconds:>9.4f} {1.0:>7.3f}",
        f"{'disabled':10} {result.disabled_seconds:>9.4f} {result.disabled_ratio:>7.3f}",
        f"{'on':10} {result.on_seconds:>9.4f} {result.on_ratio:>7.3f}",
        f"{result.statements} statements/trial, {result.trials} timed trials; "
        f"tracing-on captured {result.records_captured} records "
        f"({result.spans_absorbed} spans folded into histograms); results {match}",
    ]
    return "\n".join(lines)


def render_recovery_breakdown(rows: list[RecoveryBreakdownRow]) -> str:
    """Experiment RB: recovery phase split per fault kind, from span traces."""
    lines = [
        "Experiment RB. Recovery time breakdown by fault kind (from span traces)",
        f"{'Fault kind':22} {'Runs':>5} {'Recov.':>7} {'Pings':>6} "
        f"{'Await (ms)':>11} {'Phase1 (ms)':>12} {'Phase2 (ms)':>12} {'Total (ms)':>11}",
    ]
    for row in rows:
        lines.append(
            f"{row.kind:22} {row.runs:>5} {row.recoveries:>7} {row.mean_pings:>6.1f} "
            f"{row.mean_await_ms:>11.3f} {row.mean_phase1_ms:>12.3f} "
            f"{row.mean_phase2_ms:>12.3f} {row.mean_total_ms:>11.3f}"
        )
    return "\n".join(lines)


def render_planned_restart(result: PlannedRestartResult) -> str:
    """Experiment PR: planned drain/swap restarts vs hard crashes under load."""
    lines = [
        "Experiment PR. Planned restarts (drain + swap) vs hard crashes under load",
        f"{result.clients} clients x {result.ops_total // result.clients} UPDATEs, "
        f"{result.restarts} restarts per phase",
        f"{'Phase':10} {'p50 (ms)':>9} {'p99 (ms)':>9} {'max (ms)':>9} {'Recoveries':>11}",
        f"{'planned':10} {result.planned_p50 * 1e3:>9.2f} {result.planned_p99 * 1e3:>9.2f} "
        f"{result.planned_max * 1e3:>9.2f} {result.planned_recoveries:>11}",
        f"{'crash':10} {result.crash_p50 * 1e3:>9.2f} {result.crash_p99 * 1e3:>9.2f} "
        f"{result.crash_max * 1e3:>9.2f} {result.crash_recoveries:>11}",
        f"client-visible errors: {result.client_errors}; drains completed: "
        f"{result.drains_completed}; sessions ridden through: "
        f"{result.sessions_ridden_through}; statements bounced: "
        f"{result.statements_bounced}; max pause {result.max_pause_seconds * 1e3:.2f} ms",
    ]
    verdict = (
        "planned p99 below crash p99"
        if result.planned_p99 < result.crash_p99
        else "PLANNED P99 NOT BELOW CRASH BASELINE"
    )
    match = "identical" if result.fingerprints_match else "MISMATCH"
    lines.append(f"{verdict}; durable state planned vs crash: {match}")
    return "\n".join(lines)


def render_time_travel(result: TimeTravelResult) -> str:
    """Experiment TT: AS OF cost, the fingerprint sweep guard, and the
    restore_to ride-through."""
    lines = [
        "Experiment TT. Time travel from the WAL: AS OF queries and restore_to",
        f"{'Commits':>8} {'Log recs':>9} {'Replayed':>9} {'Cut LSN':>9} {'Reconstruct (ms)':>17}",
    ]
    for row in result.reconstruct:
        lines.append(
            f"{row.commits:>8} {row.log_records:>9} {row.records_replayed:>9} "
            f"{row.cut_lsn:>9} {row.reconstruct_seconds * 1e3:>17.3f}"
        )
    lines.append(
        f"AS OF latency vs live read: live {result.live_select_seconds * 1e3:.3f} ms, "
        f"cold {result.as_of_cold_seconds * 1e3:.3f} ms, "
        f"warm {result.as_of_warm_seconds * 1e3:.3f} ms "
        f"({result.snapshot_hits} snapshot hits)"
    )
    guard = "exact" if result.fingerprints_match else "MISMATCH"
    lines.append(
        f"fingerprint sweep: {result.cuts_matched}/{result.cuts_pinned} "
        f"pinned cuts reproduced — {guard}"
    )
    once = "exactly once" if result.ride_through_exactly_once else "LOST OR DOUBLED"
    pre = "still exact" if result.pre_restore_cut_ok else "DIVERGED"
    lines.append(
        f"restore_to ride-through: {result.clients} clients x "
        f"{result.ops_total // result.clients} UPDATEs, restore in "
        f"{result.restore_seconds * 1e3:.2f} ms, "
        f"{result.restore_sessions_ridden} sessions ridden, "
        f"{result.restore_commits_discarded} commits discarded, "
        f"{result.client_errors} client errors; updates applied {once}; "
        f"pre-restore cut {pre}"
    )
    return "\n".join(lines)


def render_tcp_serving(result: TcpServingResult) -> str:
    """Experiment NET: idle-session scaling, per-op overhead, and the
    transport-neutrality fingerprint guard."""
    lines = [
        "Experiment NET. Real-socket serving tier: scaling, overhead, parity",
        f"{'Sessions':>9} {'Connect (s)':>12} {'Ping all (s)':>13} "
        f"{'Ping us/sess':>13} {'Answered':>9} {'Errors':>7}",
    ]
    for row in result.idle_scale:
        per_ping = row.ping_seconds / row.sessions * 1e6 if row.sessions else 0.0
        lines.append(
            f"{row.sessions:>9} {row.connect_seconds:>12.3f} "
            f"{row.ping_seconds:>13.3f} {per_ping:>13.1f} "
            f"{row.pings_answered:>9} {row.client_errors:>7}"
        )
    all_answered = all(
        row.pings_answered == row.sessions and row.client_errors == 0
        for row in result.idle_scale
    )
    lines.append(
        "idle scaling: all pings answered, 0 errors"
        if all_answered
        else "idle scaling: PINGS LOST OR CLIENT ERRORS"
    )
    lines.append(
        f"per-op latency over {result.ops} statements: in-process "
        f"{result.inprocess_op_seconds * 1e6:.1f} us/op, TCP "
        f"{result.tcp_op_seconds * 1e6:.1f} us/op "
        f"(overhead {result.overhead_ratio:.2f}x)"
    )
    match = "identical" if result.fingerprints_match else "MISMATCH"
    lines.append(f"durable state in-process vs TCP: {match}")
    return "\n".join(lines)


def render_concurrency(result: ConcurrencyResult, chaos: dict | None = None) -> str:
    """Experiment CC: threaded dispatch throughput + parallel recovery."""
    lines = [
        "Experiment CC. Concurrent serving and parallel session recovery",
        f"{result.segments * result.ops_per_segment} operations over "
        f"{result.segments} disjoint key ranges; wire transit "
        f"{result.latency * 1e3:.1f} ms/request",
        f"{'Clients':>8} {'Ops':>5} {'Seconds':>9} {'Ops/s':>8} {'Speedup':>8}",
    ]
    for row in result.throughput:
        lines.append(
            f"{row.clients:>8} {row.operations:>5} {row.seconds:>9.3f} "
            f"{row.ops_per_second:>8.1f} {result.speedup(row.clients):>7.2f}x"
        )
    match = "identical" if result.throughput_fingerprints_match else "MISMATCH"
    lines.append(f"durable state across client counts: {match}")
    lines.append("")
    lines.append(
        f"{'Sessions':>9} {'Mode':10} {'Workers':>8} {'Seconds':>9} {'Rebuilt':>8}"
    )
    for row in result.recovery:
        lines.append(
            f"{row.sessions:>9} {row.mode:10} {row.workers:>8} "
            f"{row.seconds:>9.3f} {row.rebuilt:>8}"
        )
    for sessions in sorted({row.sessions for row in result.recovery}):
        lines.append(
            f"parallel/serial wall-time ratio at {sessions} sessions: "
            f"{result.recovery_ratio(sessions):.3f}"
        )
    match = "identical" if result.recovery_fingerprints_match else "MISMATCH"
    lines.append(f"durable state serial vs parallel: {match}")
    if result.contention:
        lines.append("")
        lines.append(
            f"Hot-table lock contention: every client updates its own key in "
            f"one shared table, {result.contention_rounds} transactions of "
            f"{result.contention_ops_per_txn} UPDATEs each"
        )
        lines.append(
            f"{'Scenario':17} {'Clients':>8} {'Ops':>5} {'Seconds':>9} "
            f"{'Ops/s':>8} {'Waits':>6} {'Wait (s)':>9}"
        )
        for row in result.contention:
            lines.append(
                f"{row.scenario:17} {row.clients:>8} {row.operations:>5} "
                f"{row.seconds:>9.3f} {row.ops_per_second:>8.1f} "
                f"{row.lock_waits:>6} {row.lock_wait_seconds:>9.3f}"
            )
        for clients in sorted({row.clients for row in result.contention}):
            lines.append(
                f"row-lock speedup over table locks at {clients} clients: "
                f"{result.hot_speedup(clients):.2f}x"
            )
        match = "identical" if result.contention_fingerprints_match else "MISMATCH"
        lines.append(f"durable state row locks vs table locks: {match}")
    if chaos is not None:
        lines.append("")
        lines.append("Multi-client crash sweep (per-client exactly-once oracle)")
        lines.append(
            f"{'Clients':>8} {'Runs':>5} {'Recovered':>10} {'Recoveries':>11}"
        )
        for clients, cell in chaos.items():
            lines.append(
                f"{clients:>8} {cell['runs']:>5} "
                f"{cell['recovered_fraction']:>9.0%} {cell['recoveries']:>11}"
            )
            for violation in cell["violations"]:
                lines.append(f"  VIOLATION: {violation}")
    return "\n".join(lines)


def _concurrency_json(result: ConcurrencyResult, chaos: dict | None = None) -> dict:
    out: dict[str, object] = {
        "latency": result.latency,
        "segments": result.segments,
        "ops_per_segment": result.ops_per_segment,
        "throughput_fingerprints_match": result.throughput_fingerprints_match,
        "recovery_fingerprints_match": result.recovery_fingerprints_match,
        "throughput": [
            {
                "clients": row.clients,
                "operations": row.operations,
                "seconds": row.seconds,
                "ops_per_second": row.ops_per_second,
                "speedup": result.speedup(row.clients),
                "fingerprint": row.fingerprint,
            }
            for row in result.throughput
        ],
        "recovery": [
            {
                "sessions": row.sessions,
                "mode": row.mode,
                "workers": row.workers,
                "seconds": row.seconds,
                "rebuilt": row.rebuilt,
                "fingerprint": row.fingerprint,
            }
            for row in result.recovery
        ],
        "recovery_ratios": {
            str(sessions): result.recovery_ratio(sessions)
            for sessions in sorted({row.sessions for row in result.recovery})
        },
        "contention_rounds": result.contention_rounds,
        "contention_ops_per_txn": result.contention_ops_per_txn,
        "contention_fingerprints_match": result.contention_fingerprints_match,
        "contention": [
            {
                "scenario": row.scenario,
                "clients": row.clients,
                "operations": row.operations,
                "seconds": row.seconds,
                "ops_per_second": row.ops_per_second,
                "lock_waits": row.lock_waits,
                "lock_wait_seconds": row.lock_wait_seconds,
                "fingerprint": row.fingerprint,
            }
            for row in result.contention
        ],
        "hot_speedups": {
            str(clients): result.hot_speedup(clients)
            for clients in sorted({row.clients for row in result.contention})
        },
    }
    if chaos is not None:
        out["multi_client_chaos"] = {str(k): cell for k, cell in chaos.items()}
    return out


def _planned_restart_json(result: PlannedRestartResult) -> dict:
    return {
        "clients": result.clients,
        "restarts": result.restarts,
        "ops_total": result.ops_total,
        "client_errors": result.client_errors,
        "planned_p50": result.planned_p50,
        "planned_p99": result.planned_p99,
        "planned_max": result.planned_max,
        "crash_p50": result.crash_p50,
        "crash_p99": result.crash_p99,
        "crash_max": result.crash_max,
        "drains_completed": result.drains_completed,
        "sessions_ridden_through": result.sessions_ridden_through,
        "statements_bounced": result.statements_bounced,
        "max_pause_seconds": result.max_pause_seconds,
        "planned_recoveries": result.planned_recoveries,
        "crash_recoveries": result.crash_recoveries,
        "planned_p99_below_crash": result.planned_p99 < result.crash_p99,
        "fingerprints_match": result.fingerprints_match,
    }


def _time_travel_json(result: TimeTravelResult) -> dict:
    return {
        "reconstruct": [
            {
                "commits": row.commits,
                "log_records": row.log_records,
                "records_replayed": row.records_replayed,
                "cut_lsn": row.cut_lsn,
                "reconstruct_seconds": row.reconstruct_seconds,
            }
            for row in result.reconstruct
        ],
        "live_select_seconds": result.live_select_seconds,
        "as_of_cold_seconds": result.as_of_cold_seconds,
        "as_of_warm_seconds": result.as_of_warm_seconds,
        "snapshot_hits": result.snapshot_hits,
        "cuts_pinned": result.cuts_pinned,
        "cuts_matched": result.cuts_matched,
        "fingerprints_match": result.fingerprints_match,
        "clients": result.clients,
        "ops_total": result.ops_total,
        "client_errors": result.client_errors,
        "restore_seconds": result.restore_seconds,
        "restore_sessions_ridden": result.restore_sessions_ridden,
        "restore_commits_discarded": result.restore_commits_discarded,
        "ride_through_exactly_once": result.ride_through_exactly_once,
        "pre_restore_cut_ok": result.pre_restore_cut_ok,
    }


def _tcp_serving_json(result: TcpServingResult) -> dict:
    return {
        "idle_scale": [
            {
                "sessions": row.sessions,
                "connect_seconds": row.connect_seconds,
                "ping_seconds": row.ping_seconds,
                "pings_answered": row.pings_answered,
                "client_errors": row.client_errors,
            }
            for row in result.idle_scale
        ],
        "ops": result.ops,
        "inprocess_op_seconds": result.inprocess_op_seconds,
        "tcp_op_seconds": result.tcp_op_seconds,
        "overhead_ratio": result.overhead_ratio,
        "fingerprints_match": result.fingerprints_match,
    }


def _obs_overhead_json(result: ObsOverheadResult) -> dict:
    return {
        "baseline_seconds": result.baseline_seconds,
        "disabled_seconds": result.disabled_seconds,
        "on_seconds": result.on_seconds,
        "disabled_ratio": result.disabled_ratio,
        "on_ratio": result.on_ratio,
        "statements": result.statements,
        "records_captured": result.records_captured,
        "spans_absorbed": result.spans_absorbed,
        "fingerprints_match": len(set(result.fingerprints.values())) == 1,
        "trials": result.trials,
    }


def _recovery_breakdown_json(rows: list[RecoveryBreakdownRow]) -> list[dict]:
    return [
        {
            "kind": row.kind,
            "runs": row.runs,
            "recoveries": row.recoveries,
            "mean_pings": row.mean_pings,
            "mean_await_ms": row.mean_await_ms,
            "mean_phase1_ms": row.mean_phase1_ms,
            "mean_phase2_ms": row.mean_phase2_ms,
            "mean_total_ms": row.mean_total_ms,
        }
        for row in rows
    ]


def _wire_batch_json(result: WireBatchResult) -> dict:
    return {
        "rows": result.rows,
        "batch_size": result.batch_size,
        "trip_ratio": result.trip_ratio,
        "force_ratio": result.force_ratio,
        "fingerprints_match": result.fingerprints_match,
        "runs": [
            {
                "mode": run.mode,
                "trial": run.trial,
                "batch_size": run.batch_size,
                "seconds": run.seconds,
                "statements": run.statements,
                "round_trips": run.round_trips,
                "batch_requests": run.batch_requests,
                "requests_batched": run.requests_batched,
                "wal_forces": run.wal_forces,
                "group_forces": run.group_forces,
                "forces_coalesced": run.forces_coalesced,
                "fingerprint": run.fingerprint,
            }
            for run in result.runs
        ],
    }


def _chaos_json(result: ChaosResult) -> dict:
    return {
        "seed": result.seed,
        "golden_requests": result.golden_requests,
        "runs": result.runs,
        "recovered_fraction": result.recovered_fraction,
        "total_recoveries": result.total_recoveries,
        "mean_virtual_session_seconds": result.mean_virtual_session_seconds,
        "mean_sql_state_seconds": result.mean_sql_state_seconds,
        "elapsed_seconds": result.elapsed_seconds,
        "by_kind": result.by_kind,
        "failures": result.failures,
    }


def _plan_cache_json(runs: list[PlanCacheRun]) -> list[dict]:
    return [
        {
            "workload": run.workload,
            "cache": run.cache,
            "seconds": run.seconds,
            "statements": run.statements,
            "statements_per_second": run.statements_per_second,
            "fingerprint": run.fingerprint,
            "metrics": run.metrics,
        }
        for run in runs
    ]


def _executor_json(runs: list[ExecutorRun]) -> list[dict]:
    return [
        {
            "workload": run.workload,
            "executor": run.executor,
            "seconds": run.seconds,
            "statements": run.statements,
            "statements_per_second": run.statements_per_second,
            "fingerprint": run.fingerprint,
            "counters": run.counters,
        }
        for run in runs
    ]


def _table1_json(rows: list[Table1Row]) -> list[dict]:
    return [
        {
            "name": row.name,
            "result_rows": row.result_rows,
            "native_seconds": row.native_seconds,
            "phoenix_seconds": row.phoenix_seconds,
            "difference": row.difference,
            "ratio": row.ratio,
        }
        for row in rows
    ]


def _fig2_json(series: Fig2Series) -> list[dict]:
    return [
        {
            "result_size": point.result_size,
            "virtual_session_seconds": point.virtual_session_seconds,
            "sql_state_seconds": point.sql_state_seconds,
            "outstanding_fetch_seconds": point.outstanding_fetch_seconds,
            "recovery_seconds": point.recovery_seconds,
            "recompute_seconds": point.recompute_seconds,
        }
        for point in series.points
    ]


def _availability_json(results: dict[str, AvailabilityResult]) -> list[dict]:
    return [
        {
            "driver": result.driver,
            "sessions_total": result.sessions_total,
            "sessions_completed": result.sessions_completed,
            "availability": result.availability,
            "crashes": result.crashes,
        }
        for result in results.values()
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "artifact",
        choices=[
            "table1",
            "fig2",
            "availability",
            "plancache",
            "executor",
            "wirebatch",
            "chaos",
            "obs_overhead",
            "recovery_breakdown",
            "concurrency",
            "plannedrestart",
            "timetravel",
            "tcp",
            "all",
        ],
    )
    parser.add_argument("--seed", type=int, default=0, help="chaos multi-fault seed")
    parser.add_argument("--sf", type=float, default=0.001, help="TPC-H scale factor")
    parser.add_argument("--reps", type=int, default=3, help="power test repetitions")
    parser.add_argument(
        "--rows", type=int, default=48, help="wirebatch: rows per executemany"
    )
    parser.add_argument(
        "--batch-size", type=int, default=8, help="wirebatch: statements per request"
    )
    parser.add_argument(
        "--trials", type=int, default=3, help="wirebatch: trials per mode"
    )
    parser.add_argument(
        "--contention-rounds",
        type=int,
        default=6,
        help="concurrency: explicit transactions per client in the "
        "hot-table contention scenarios",
    )
    parser.add_argument(
        "--executor-rows",
        type=int,
        default=2000,
        help="executor: rows in the range/top-k ablation table",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="also write the run's results as a machine-readable JSON artifact",
    )
    args = parser.parse_args(argv)

    payload: dict[str, object] = {}
    if args.artifact in ("table1", "all"):
        rows = run_table1_power_comparison(sf=args.sf, repetitions=args.reps)
        print(render_table1(rows))
        print()
        payload["table1"] = _table1_json(rows)
    if args.artifact in ("fig2", "all"):
        series = run_fig2_recovery_sweep()
        print(render_fig2(series))
        print()
        payload["fig2"] = _fig2_json(series)
    if args.artifact in ("availability", "all"):
        results = run_availability_experiment()
        print(render_availability(results))
        payload["availability"] = _availability_json(results)
    if args.artifact in ("plancache", "all"):
        runs = run_plan_cache_ablation(sf=args.sf, repetitions=args.reps)
        print(render_plan_cache(runs))
        payload["plancache"] = _plan_cache_json(runs)
    if args.artifact in ("executor", "all"):
        executor_runs = run_executor_ablation(
            sf=args.sf, repetitions=args.reps, rows=args.executor_rows
        )
        print(render_executor(executor_runs))
        payload["executor"] = _executor_json(executor_runs)
    if args.artifact in ("wirebatch", "all"):
        wire_batch = run_wire_batch(
            rows=args.rows, batch_size=args.batch_size, trials=args.trials
        )
        print(render_wire_batch(wire_batch))
        payload["wire_batch"] = _wire_batch_json(wire_batch)
    if args.artifact in ("chaos", "all"):
        result = run_chaos_experiment(seed=args.seed)
        print(render_chaos(result))
        payload["chaos"] = _chaos_json(result)
    if args.artifact in ("obs_overhead", "all"):
        obs_result = run_obs_overhead()
        print(render_obs_overhead(obs_result))
        payload["obs_overhead"] = _obs_overhead_json(obs_result)
    if args.artifact in ("recovery_breakdown", "all"):
        breakdown = run_recovery_breakdown(seed=args.seed)
        print(render_recovery_breakdown(breakdown))
        payload["recovery_breakdown"] = _recovery_breakdown_json(breakdown)
    if args.artifact in ("concurrency", "all"):
        from repro.chaos.multi import sweep_multi

        concurrency = run_concurrency(contention_rounds=args.contention_rounds)
        chaos_sweep = sweep_multi((1, 4, 16))
        print(render_concurrency(concurrency, chaos_sweep))
        payload["concurrency"] = _concurrency_json(concurrency, chaos_sweep)
    if args.artifact in ("plannedrestart", "all"):
        planned = run_planned_restart()
        print(render_planned_restart(planned))
        payload["planned_restart"] = _planned_restart_json(planned)
    if args.artifact in ("timetravel", "all"):
        time_travel = run_time_travel()
        print(render_time_travel(time_travel))
        payload["time_travel"] = _time_travel_json(time_travel)
    if args.artifact in ("tcp", "all"):
        tcp_serving = run_tcp_serving()
        print(render_tcp_serving(tcp_serving))
        payload["tcp_serving"] = _tcp_serving_json(tcp_serving)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
