"""The chaos sweep's front end: ``python -m repro.chaos [--seed N] [--stride K] ...``.

Runs :func:`repro.chaos.explorer.run_sweep` — every fault kind at every
crash point, then a batch of seeded multi-fault schedules, over each
``--transport`` — and prints its table (Experiment CH).  ``--json PATH``
writes its document, one :meth:`~repro.chaos.explorer.ChaosReport.summary`
per transport under the ``chaos`` key; this command, with CI's flags
(``--seed 2000 --random-runs 150 --transport inprocess tcp``), is the only
one that regenerates ``BENCH_chaos.json``.  Exits 1 on any oracle
violation, printing the seed and the exact failing schedule so the run
reproduces with ``ChaosExplorer(seed=N, transport=T).run_schedule(schedule)``.
``--second-order`` sweeps crashes and drops inside recovery instead: at
every request of every session rebuild a single wire fault triggers.
With ``--trace-dir DIR`` every failing schedule is re-run under a tracer
and its span trace written to ``DIR`` as JSONL — the violation report names
the file, and ``python -m repro.obs --load FILE`` renders the timeline.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from repro.chaos.explorer import TRANSPORTS, ChaosExplorer, run_sweep
from repro.obs.tracer import Tracer, dump_jsonl


def render(summaries: list[dict]) -> str:
    """Experiment CH's table: one row per transport and fault kind."""
    lines = ["Experiment CH. Crash-schedule sweep vs the exactly-once oracle"]
    lines += [
        f"golden run ({s['transport']}): {s['golden_requests']} wire requests; "
        f"seed {s['seed']}; {s['runs']} faulted runs in {s['elapsed_seconds']:.1f}s"
        for s in summaries
    ]
    lines.append("Transport  Fault kind              Runs Recovered  Recoveries")
    lines += [
        f"{s['transport']:10} {kind:22} {cell['runs']:>5.0f} "
        f"{cell['recovered_fraction']:>9.0%} {cell['recoveries']:>11.0f}"
        for s in summaries
        for kind, cell in s["by_kind"].items()
    ]
    for s in summaries:
        lines.append(
            f"{s['transport']}: {s['recovered_fraction']:.1%} recovered, "
            f"{s['total_recoveries']} recoveries "
            f"(phase 1 mean {s['mean_virtual_session_seconds'] * 1e3:.3f} ms, "
            f"phase 2 mean {s['mean_sql_state_seconds'] * 1e3:.3f} ms)"
        )
        lines += [f"FAILING {f['schedule']}: {f['violations']}" for f in s["failures"]]
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The command line, apart from running it (the doc checker reads its flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Systematic crash-schedule sweep with the exactly-once oracle.",
    )
    parser.add_argument("--seed", type=int, default=0, help="multi-fault RNG seed")
    parser.add_argument(
        "--stride", type=int, default=1, help="crash-point stride (1 = exhaustive)"
    )
    parser.add_argument(
        "--random-runs", type=int, default=24, help="seeded multi-fault run count"
    )
    parser.add_argument(
        "--transport",
        nargs="+",
        choices=TRANSPORTS,
        default=["inprocess"],
        help="run the sweep over each of these transports",
    )
    parser.add_argument(
        "--second-order",
        action="store_true",
        help="place crash/drop faults at every request of every rebuild a "
        "single wire fault triggers, instead of every kind alone",
    )
    parser.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        default=None,
        help="also write the sweep as a machine-readable JSON artifact",
    )
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="re-run each failing schedule traced; write span traces here",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    reports = run_sweep(
        seed=args.seed,
        stride=args.stride,
        random_runs=args.random_runs,
        transports=tuple(args.transport),
        second_order=args.second_order,
    )
    summaries = [report.summary() for report in reports]
    print(render(summaries))
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump({"chaos": summaries}, handle, indent=2)
        print(f"wrote {args.json_path}")

    failing = [(report, result) for report in reports for result in report.failures]
    if not failing:
        return 0
    print(f"seed={args.seed} — {len(failing)} FAILING SCHEDULE(S):")
    for i, (report, result) in enumerate(failing):
        print(f"  [{report.transport}] {result.describe()}")
        for violation in result.violations:
            print(f"    - {violation}")
        if args.trace_dir is not None:
            # deterministic re-run under a tracer: same trace, same golden,
            # same schedule, so the captured spans show the failing timeline
            args.trace_dir.mkdir(parents=True, exist_ok=True)
            tracer = Tracer(enabled=True, seed=args.seed)
            explorer = ChaosExplorer(seed=args.seed, transport=report.transport)
            explorer.run_schedule(result.schedule, tracer=tracer)
            path = args.trace_dir / f"failure-{i}.jsonl"
            dump_jsonl(tracer.records, path)
            print(f"    trace: {path} (render: python -m repro.obs --load {path})")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
