"""The experiment registry, and a small CLI over it.

Usage::

    python -m repro.bench.reporting table1 [--sf 0.001] [--reps 3]
    python -m repro.bench.reporting fig2
    python -m repro.bench.reporting obs_overhead --json BENCH_obs_overhead.json
    python -m repro.bench.reporting recovery_breakdown
    python -m repro.bench.reporting concurrency --json BENCH_concurrency.json
    python -m repro.bench.reporting plannedrestart --json BENCH_planned_restart.json
    python -m repro.bench.reporting timetravel --json BENCH_time_travel.json
    python -m repro.bench.reporting tcp --json BENCH_tcp.json
    python -m repro.bench.reporting all

:data:`EXPERIMENTS` holds one :class:`~repro.bench.skeleton.Experiment`
per artifact; the CLI, CI and the examples all go through it
(``EXPERIMENTS[name].runner(...)``, ``.render(result)``).  Output mirrors
the paper's layout: Table 1's columns are query id, result rows, native
seconds, Phoenix seconds, difference, ratio; Figure 2 prints the two
stacked components per result size (the figure's bars) plus the recompute
comparison discussed in §4.  (The *gated* form of both is one ratio each:
``benchmarks/e2e/run.py --workload tpch_power`` / ``crash_recovery``,
``phoenix_vs_plain_ratio``; these two give the paper's layout.)

``--json PATH`` additionally writes every artifact produced by the run as
one machine-readable JSON document (``BENCH_*.json`` convention), each
under its experiment's ``key``, so perf results accumulate as comparable
artifacts across revisions.
"""

from __future__ import annotations

import argparse
import json

from repro.bench import harness
from repro.bench.skeleton import Experiment, Table, payload

__all__ = ["EXPERIMENTS", "main"]


def _verdict(ok: bool, good: str = "identical", bad: str = "MISMATCH") -> str:
    return good if ok else bad


def _fig2_bars(points: list[harness.Fig2Point]) -> list[str]:
    """The figure itself: one stacked bar per result size."""
    scale = max((p.recovery_seconds for p in points), default=1.0) or 1.0
    bars = [
        f"{p.result_size:>6} |{'V' * max(int(40 * p.virtual_session_seconds / scale), 1)}"
        f"{'S' * max(int(40 * p.sql_state_seconds / scale), 1)}"
        for p in points
    ]
    return ["", *bars, "        V = virtual session, S = SQL state (stacked, like the figure)"]


def _chaos_footer(r: harness.ChaosResult) -> list[str]:
    return [
        f"overall: {r.recovered_fraction:.1%} recovered, {r.total_recoveries} recoveries "
        f"(phase 1 mean {r.mean_virtual_session_seconds * 1e3:.3f} ms, "
        f"phase 2 mean {r.mean_sql_state_seconds * 1e3:.3f} ms)",
        *(f"FAILING {f['schedule']}: {f['violations']}" for f in r.failures),
    ]


def _planned_restart_footer(r: harness.PlannedRestartResult) -> list[str]:
    return [
        f"client-visible errors: {r.client_errors}; drains completed: "
        f"{r.drains_completed}; sessions ridden through: {r.sessions_ridden_through}; "
        f"statements bounced: {r.statements_bounced}; "
        f"max pause {r.max_pause_seconds * 1e3:.2f} ms",
        _verdict(
            r.planned_p99_below_crash,
            "planned p99 below crash p99",
            "PLANNED P99 NOT BELOW CRASH BASELINE",
        )
        + f"; durable state planned vs crash: {_verdict(r.fingerprints_match)}",
    ]


def _time_travel_footer(r: harness.TimeTravelResult) -> list[str]:
    return [
        f"AS OF latency vs live read: live {r.live_select_seconds * 1e3:.3f} ms, "
        f"cold {r.as_of_cold_seconds * 1e3:.3f} ms, "
        f"warm {r.as_of_warm_seconds * 1e3:.3f} ms ({r.snapshot_hits} snapshot hits)",
        f"fingerprint sweep: {r.cuts_matched}/{r.cuts_pinned} pinned cuts "
        f"reproduced — {_verdict(r.fingerprints_match, 'exact')}",
        f"restore_to ride-through: {r.clients} clients x {r.ops_total // r.clients} "
        f"UPDATEs, restore in {r.restore_seconds * 1e3:.2f} ms, "
        f"{r.restore_sessions_ridden} sessions ridden, "
        f"{r.restore_commits_discarded} commits discarded, "
        f"{r.client_errors} client errors; updates applied "
        f"{_verdict(r.ride_through_exactly_once, 'exactly once', 'LOST OR DOUBLED')}; "
        f"pre-restore cut {_verdict(r.pre_restore_cut_ok, 'still exact', 'DIVERGED')}",
    ]


def _tcp_footer(r: harness.TcpServingResult) -> list[str]:
    all_answered = all(
        row.pings_answered == row.sessions and row.client_errors == 0
        for row in r.idle_scale
    )
    return [
        "idle scaling: "
        + _verdict(all_answered, "all pings answered, 0 errors", "PINGS LOST OR CLIENT ERRORS"),
    ]


EXPERIMENTS: dict[str, Experiment] = {}


def register(experiment: Experiment) -> None:
    EXPERIMENTS[experiment.name] = experiment


register(Experiment(
    "table1", "table1", harness.run_table1_power_comparison, harness.Table1Row,
    "Table 1. TPC-H power test: native ODBC vs Phoenix/ODBC",
    [Table(
        ("Query/Update", "Rows", "Native (s)", "Phoenix (s)", "Diff (s)", "Ratio"),
        "{r.name:14} {r.result_rows:>8} {r.native_seconds:>12.4f} "
        "{r.phoenix_seconds:>12.4f} {r.difference:>10.4f} {r.ratio:>7.3f}",
    )],
    options={"sf": "sf", "repetitions": "reps"},
))

register(Experiment(
    "fig2", "fig2", harness.run_fig2_recovery_sweep, harness.Fig2Point,
    "Figure 2. Elapsed time for session recovery over varying result sizes",
    [Table(
        ("Result size", "Virtual (s)", "SQL state (s)", "Fetch (s)", "Recovery (s)",
         "Recompute (s)", "Rec/Comp"),
        "{r.result_size:>11} {r.virtual_session_seconds:>12.4f} {r.sql_state_seconds:>14.4f} "
        "{r.outstanding_fetch_seconds:>10.4f} {r.recovery_seconds:>13.4f} "
        "{r.recompute_seconds:>14.4f} {r.recovery_vs_recompute:>9.3f}",
        footer=_fig2_bars,
    )],
))

register(Experiment(
    "availability", "availability",
    lambda **kw: list(harness.run_availability_experiment(**kw).values()),
    harness.AvailabilityResult,
    "Experiment AV. Application availability under periodic server crashes",
    [Table(
        ("Driver", "Sessions", "Completed", "Availability", "Crashes seen"),
        "{r.driver:10} {r.sessions_total:>9} {r.sessions_completed:>10} "
        "{r.availability:>12.0%} {r.crashes:>13}",
    )],
))

register(Experiment(
    "chaos", "chaos", harness.run_chaos_experiment, harness.ChaosResult,
    "Experiment CH. Crash-schedule sweep vs the exactly-once oracle",
    [Table(
        ("Fault kind", "Runs", "Recovered", "Recoveries"),
        "{r[0]:22} {r[1][runs]:>5.0f} {r[1][recovered_fraction]:>9.0%} "
        "{r[1][recoveries]:>11.0f}",
        rows=lambda r: r.by_kind.items(),
        caption=lambda r: [
            f"golden run: {r.golden_requests} wire requests; seed {r.seed}; "
            f"{r.runs} faulted runs in {r.elapsed_seconds:.1f}s"
        ],
        footer=_chaos_footer,
    )],
    options={"seed": "seed"},
))

register(Experiment(
    "obs_overhead", "obs_overhead", harness.run_obs_overhead, harness.ObsOverheadResult,
    "Experiment OBS. Tracing overhead (phoenix trace workload)",
    [Table(
        ("Mode", "Seconds", "Ratio"),
        "{r[0]:10} {r[1]:>9.4f} {r[2]:>7.3f}",
        rows=lambda r: [
            ("baseline", r.baseline_seconds, 1.0),
            ("disabled", r.disabled_seconds, r.disabled_ratio),
            ("on", r.on_seconds, r.on_ratio),
        ],
        footer=lambda r: [
            f"{r.statements} statements/trial, {r.trials} timed trials; tracing-on "
            f"captured {r.records_captured} records ({r.spans_absorbed} spans folded "
            f"into histograms); results {_verdict(r.fingerprints_match)}"
        ],
    )],
))

register(Experiment(
    "recovery_breakdown", "recovery_breakdown", harness.run_recovery_breakdown,
    harness.RecoveryBreakdownRow,
    "Experiment RB. Recovery time breakdown by fault kind (from span traces)",
    [Table(
        ("Fault kind", "Runs", "Recov.", "Pings", "Await (ms)", "Phase1 (ms)",
         "Phase2 (ms)", "Total (ms)"),
        "{r.kind:22} {r.runs:>5} {r.recoveries:>7} {r.mean_pings:>6.1f} "
        "{r.mean_await_ms:>11.3f} {r.mean_phase1_ms:>12.3f} {r.mean_phase2_ms:>12.3f} "
        "{r.mean_total_ms:>11.3f}",
    )],
    options={"seed": "seed"},
))

register(Experiment(
    "concurrency", "concurrency", harness.run_concurrency, harness.ConcurrencyResult,
    "Experiment CC. Concurrent serving and parallel session recovery",
    [
        Table(
            ("Clients", "Ops", "Seconds", "Ops/s", "Speedup"),
            "{r.clients:>8} {r.operations:>5} {r.seconds:>9.3f} {r.ops_per_second:>8.1f} "
            "{r.speedup:>7.2f}x",
            rows=lambda r: r.throughput,
            caption=lambda r: [
                f"{r.segments * r.ops_per_segment} operations over {r.segments} "
                f"disjoint key ranges; wire transit {r.latency * 1e3:.1f} ms/request"
            ],
            footer=lambda r: [
                "durable state across client counts: "
                + _verdict(r.throughput_fingerprints_match)
            ],
        ),
        Table(
            ("Sessions", "Mode", "Workers", "Seconds", "Rebuilt"),
            "{r.sessions:>9} {r.mode:10} {r.workers:>8} {r.seconds:>9.3f} {r.rebuilt:>8}",
            rows=lambda r: r.recovery,
            footer=lambda r: [
                *(
                    f"parallel/serial wall-time ratio at {sessions} sessions: {ratio:.3f}"
                    for sessions, ratio in r.recovery_ratios.items()
                ),
                f"durable state serial vs parallel: {_verdict(r.recovery_fingerprints_match)}",
            ],
        ),
        Table(
            ("Scenario", "Clients", "Ops", "Seconds", "Ops/s", "Waits", "Wait (s)"),
            "{r.scenario:17} {r.clients:>8} {r.operations:>5} {r.seconds:>9.3f} "
            "{r.ops_per_second:>8.1f} {r.lock_waits:>6} {r.lock_wait_seconds:>9.3f}",
            rows=lambda r: r.contention,
            caption=lambda r: [
                f"Hot-table lock contention: every client updates its own key in one "
                f"shared table, {r.contention_rounds} transactions of "
                f"{r.contention_ops_per_txn} UPDATEs each"
            ],
            footer=lambda r: [
                *(
                    f"row-lock speedup over table locks at {clients} clients: {speedup:.2f}x"
                    for clients, speedup in r.hot_speedups.items()
                ),
                "durable state row locks vs table locks: "
                + _verdict(r.contention_fingerprints_match),
            ],
        ),
        Table(
            ("Clients", "Runs", "Recovered", "Recoveries"),
            "{r[0]:>8} {r[1][runs]:>5} {r[1][recovered_fraction]:>9.0%} "
            "{r[1][recoveries]:>11}",
            rows=lambda r: r.multi_client_chaos.items(),
            caption=lambda r: ["Multi-client crash sweep (per-client exactly-once oracle)"],
            footer=lambda r: [
                f"  VIOLATION at {clients} clients: {violation}"
                for clients, cell in r.multi_client_chaos.items()
                for violation in cell["violations"]
            ],
        ),
    ],
    options={"contention_rounds": "contention_rounds"},
))

register(Experiment(
    "plannedrestart", "planned_restart", harness.run_planned_restart,
    harness.PlannedRestartResult,
    "Experiment PR. Planned restarts (drain + swap) vs hard crashes under load",
    [Table(
        ("Phase", "p50 (ms)", "p99 (ms)", "max (ms)", "Recoveries"),
        "{r[0]:10} {r[1]:>9.2f} {r[2]:>9.2f} {r[3]:>9.2f} {r[4]:>11}",
        rows=lambda r: [
            ("planned", r.planned_p50 * 1e3, r.planned_p99 * 1e3, r.planned_max * 1e3,
             r.planned_recoveries),
            ("crash", r.crash_p50 * 1e3, r.crash_p99 * 1e3, r.crash_max * 1e3,
             r.crash_recoveries),
        ],
        caption=lambda r: [
            f"{r.clients} clients x {r.ops_total // r.clients} UPDATEs, "
            f"{r.restarts} restarts per phase"
        ],
        footer=_planned_restart_footer,
    )],
))

register(Experiment(
    "timetravel", "time_travel", harness.run_time_travel, harness.TimeTravelResult,
    "Experiment TT. Time travel from the WAL: AS OF queries and restore_to",
    [Table(
        ("Commits", "Log recs", "Replayed", "Cut LSN", "Reconstruct (ms)"),
        "{r[0].commits:>8} {r[0].log_records:>9} {r[0].records_replayed:>9} "
        "{r[0].cut_lsn:>9} {r[1]:>17.3f}",
        rows=lambda r: [(row, row.reconstruct_seconds * 1e3) for row in r.reconstruct],
        footer=_time_travel_footer,
    )],
))

register(Experiment(
    "tcp", "tcp_serving", harness.run_tcp_serving, harness.TcpServingResult,
    "Experiment NET. Real-socket serving tier: idle-session scaling",
    [Table(
        ("Sessions", "Connect (s)", "Ping all (s)", "Ping us/sess", "Answered", "Errors"),
        "{r[0].sessions:>9} {r[0].connect_seconds:>12.3f} {r[0].ping_seconds:>13.3f} "
        "{r[1]:>13.1f} {r[0].pings_answered:>9} {r[0].client_errors:>7}",
        rows=lambda r: [
            (row, row.ping_seconds / row.sessions * 1e6 if row.sessions else 0.0)
            for row in r.idle_scale
        ],
        footer=_tcp_footer,
    )],
))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("artifact", choices=[*EXPERIMENTS, "all"])
    parser.add_argument("--seed", type=int, default=0, help="chaos multi-fault seed")
    parser.add_argument("--sf", type=float, default=0.001, help="TPC-H scale factor")
    parser.add_argument("--reps", type=int, default=3, help="power test repetitions")
    parser.add_argument(
        "--contention-rounds",
        type=int,
        default=6,
        help="concurrency: explicit transactions per client in the "
        "hot-table contention scenarios",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="also write the run's results as a machine-readable JSON artifact",
    )
    args = parser.parse_args(argv)

    selected = EXPERIMENTS if args.artifact == "all" else [args.artifact]
    document: dict[str, object] = {}
    for name in selected:
        experiment = EXPERIMENTS[name]
        result = experiment.runner(
            **{keyword: getattr(args, dest) for keyword, dest in experiment.options.items()}
        )
        print(experiment.render(result))
        print()
        document[experiment.key] = payload(result)
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
