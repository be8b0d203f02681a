"""CLI: ``python -m repro.obs`` — capture or inspect a trace.

Default: run the chaos probe/DML trace under one injected fault with
tracing enabled, then print the causal span tree and the reconstructed
recovery timeline.  Options export the raw records as JSONL, or load a
previously exported trace instead of running one.

Examples::

    python -m repro.obs                               # default crash, tree + timeline
    python -m repro.obs --fault hang@14 --timeline-only
    python -m repro.obs --fault crash_after_execute@20 --export trace.jsonl
    python -m repro.obs --load trace.jsonl --corr s0-c1
    python -m repro.obs --jsonl > trace.jsonl
"""

from __future__ import annotations

import argparse
import sys

from repro.net.faults import FaultKind
from repro.obs.timeline import RecoveryTimeline, render_tree
from repro.obs.tracer import Tracer, dump_jsonl, load_jsonl


def _parse_fault(spec: str) -> tuple[int, FaultKind]:
    """``kind@index`` → schedule entry (e.g. ``crash_before_execute@10``)."""
    try:
        kind_name, _, index = spec.partition("@")
        return int(index), FaultKind(kind_name)
    except (ValueError, KeyError):
        valid = ", ".join(k.value for k in FaultKind)
        raise argparse.ArgumentTypeError(
            f"fault must be KIND@INDEX with KIND one of: {valid}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    """The command line, apart from running it (the doc checker reads its flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Trace a faulted chaos run (or inspect a saved trace).",
    )
    parser.add_argument(
        "--fault",
        type=_parse_fault,
        action="append",
        metavar="KIND@INDEX",
        help="inject this fault at the given wire-request index "
        "(repeatable; default: crash_before_execute@10)",
    )
    parser.add_argument("--seed", type=int, default=0, help="correlation-id seed")
    parser.add_argument("--load", metavar="PATH", help="read a JSONL trace instead of running")
    parser.add_argument("--export", metavar="PATH", help="also write the records as JSONL")
    parser.add_argument("--jsonl", action="store_true", help="print JSONL instead of the tree")
    parser.add_argument("--corr", help="filter the tree to one correlation id")
    parser.add_argument("--max-depth", type=int, default=None, help="limit tree depth")
    parser.add_argument(
        "--timeline-only", action="store_true", help="print only the recovery timeline"
    )
    parser.add_argument(
        "--locks",
        action="store_true",
        help="print the lock-wait section: every lock.wait event with the "
        "waits-for graph observed while that waiter slept",
    )
    parser.add_argument(
        "--restarts",
        action="store_true",
        help="print the planned-restart section: every server.swap span "
        "with its duration",
    )
    parser.add_argument(
        "--restores",
        action="store_true",
        help="print the time-travel section: every timetravel.reconstruct / "
        "server.restore span with its cut and duration",
    )
    parser.add_argument(
        "--plans",
        action="store_true",
        help="print the access-path section: EXPLAIN plans for a "
        "representative query mix over an indexed table, plus the executor "
        "counters showing which path each query actually took (no trace run)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.plans:
        print(render_plans())
        return 0

    if args.load:
        records = load_jsonl(args.load)
    else:
        from repro.chaos.trace import probe_dml_trace, run_trace

        schedule = tuple(args.fault) if args.fault else ((10, FaultKind.CRASH_BEFORE_EXECUTE),)
        tracer = Tracer(enabled=True, seed=args.seed)
        record = run_trace(probe_dml_trace(), schedule, tracer=tracer)
        records = tracer.records
        status = "completed" if record.completed else f"FAILED: {record.error}"
        print(
            f"run {status}: {record.requests_seen} wire requests, "
            f"fired={list(record.fired)}, {record.recoveries} recover"
            f"{'y' if record.recoveries == 1 else 'ies'}",
            file=sys.stderr,
        )

    if args.export:
        dump_jsonl(records, args.export)
        print(f"wrote {len(records)} records to {args.export}", file=sys.stderr)

    if args.jsonl:
        import json

        for record in records:
            print(json.dumps(record, sort_keys=True))
        return 0

    timeline = RecoveryTimeline.from_records(records, corr=args.corr)
    if not args.timeline_only:
        corrs = sorted({r["corr"] for r in records if r.get("corr")})
        print(f"trace: {len(records)} records, correlation ids: {corrs or ['-']}")
        print(render_tree(records, corr=args.corr, max_depth=args.max_depth))
        print()
    print(timeline.render())
    if args.locks:
        print()
        print(render_lock_waits(records))
    if args.restarts:
        print()
        print(render_restarts(records))
    if args.restores:
        print()
        print(render_restores(records))
    return 0


def render_lock_waits(records: list[dict]) -> str:
    """The lock-wait section: one line per ``lock.wait`` event, with the
    waits-for graph the waiter observed when it went to sleep (the only
    moment the graph is live and non-empty)."""
    waits = [r for r in records if r.get("kind") == "event" and r.get("name") == "lock.wait"]
    lines = [f"lock waits: {len(waits)}"]
    for record in waits:
        attrs = record.get("attrs", {})
        row = attrs.get("row")
        resource = attrs.get("table", "?") if row is None else f"{attrs.get('table', '?')} row {row}"
        lines.append(
            f"  [{record.get('corr') or '-'}] {resource} "
            f"{attrs.get('mode', '?')}: waited {attrs.get('wait_seconds', 0.0) * 1000:.2f} ms"
        )
        graph = attrs.get("waits_for") or {}
        for txn, blockers in sorted(graph.items()):
            lines.append(f"      waits-for: txn {txn} -> {blockers}")
    return "\n".join(lines)


def render_restarts(records: list[dict]) -> str:
    """The planned-restart section: one line per ``server.swap`` span, in
    trace order — the operator's view of how long each pause actually was
    (a swap holds the engine mutex for its whole span)."""
    spans = [
        r for r in records if r.get("kind") == "span" and r.get("name") == "server.swap"
    ]
    spans.sort(key=lambda r: r.get("start", 0.0))
    lines = [f"planned restarts: {len(spans)}"]
    for record in spans:
        duration_ms = (record.get("end", 0.0) - record.get("start", 0.0)) * 1000
        lines.append(f"  {record['name']}: {duration_ms:.2f} ms")
    return "\n".join(lines)


def render_restores(records: list[dict]) -> str:
    """The time-travel section: one line per ``timetravel.reconstruct`` /
    ``server.restore`` span (cut, replay volume, duration), in trace order
    — the operator's view of what each AS OF / restore actually cost."""
    spans = [
        r
        for r in records
        if r.get("kind") == "span"
        and r.get("name") in ("timetravel.reconstruct", "server.restore")
    ]
    spans.sort(key=lambda r: r.get("start", 0.0))
    lines = [
        f"restores: {sum(1 for r in spans if r['name'] == 'server.restore')}, "
        f"reconstructions: "
        f"{sum(1 for r in spans if r['name'] == 'timetravel.reconstruct')}"
    ]
    for record in spans:
        attrs = record.get("attrs", {})
        duration_ms = (record.get("end", 0.0) - record.get("start", 0.0)) * 1000
        if record["name"] == "timetravel.reconstruct":
            detail = (
                f"cut={attrs.get('cut', '?')} replayed="
                f"{attrs.get('replayed', '?')}/{attrs.get('scanned', '?')} "
                f"tables={attrs.get('tables', '?')}"
            )
        else:
            ts = attrs.get("ts")
            detail = f"ts={'now' if ts is None else ts}"
        lines.append(f"  {record['name']} {detail}: {duration_ms:.2f} ms")
    return "\n".join(lines)


def render_plans() -> str:
    """The access-path section: a self-contained demo of the executor's
    plan choices.

    Builds a throwaway system, creates an indexed table, runs one query per
    access path (PK probe, secondary equality, secondary range, BETWEEN,
    index-ordered top-k, full scan with sort), and prints each EXPLAIN next
    to the executor counters — the operator's view of which path a query
    shape actually takes and what it costs in rows touched.
    """
    import repro

    dsn = "obs-plans"
    system = repro.make_system(dsn=dsn)
    conn = repro.connect(dsn, phoenix=False)
    cursor = conn.cursor()
    cursor.execute("CREATE TABLE orders (k INT PRIMARY KEY, qty INT, tag VARCHAR(10))")
    cursor.execute("CREATE INDEX idx_orders_qty ON orders (qty)")
    for i in range(500):
        cursor.execute(
            "INSERT INTO orders VALUES (?, ?, ?)", [i, i % 100, f"t{i % 7}"]
        )
    system.registry.reset()  # scope the counters to the demo queries

    demo = [
        ("PK probe", "SELECT qty FROM orders WHERE k = 123"),
        ("secondary equality", "SELECT k FROM orders WHERE qty = 42"),
        ("secondary range", "SELECT k FROM orders WHERE qty >= 90 AND qty < 95"),
        ("BETWEEN", "SELECT k FROM orders WHERE qty BETWEEN 10 AND 12"),
        ("index-ordered top-k", "SELECT k, qty FROM orders ORDER BY qty DESC LIMIT 5"),
        ("range + top-k", "SELECT k FROM orders WHERE qty > 80 ORDER BY qty LIMIT 5"),
        ("full scan + sort", "SELECT k FROM orders WHERE tag = 't3' ORDER BY tag"),
    ]
    lines = ["access paths (500-row table, secondary index on qty):"]
    for label, sql in demo:
        cursor.execute("EXPLAIN " + sql)
        plan = [row[0] for row in cursor.fetchall()]
        cursor.execute(sql)
        rows = cursor.fetchall()
        lines.append(f"  {label}: {sql}")
        for step in plan:
            lines.append(f"      {step}")
        lines.append(f"      -> {len(rows)} row(s)")
    counters = system.registry.snapshot()["executor"]
    lines.append("executor counters:")
    for name, value in counters.items():
        lines.append(f"  {name}: {value}")
    conn.close()
    return "\n".join(lines)


if __name__ == "__main__":
    raise SystemExit(main())
