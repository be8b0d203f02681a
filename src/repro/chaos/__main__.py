"""CLI sweep driver: ``python -m repro.chaos [--seed N] [--stride K] ...``.

Runs ``ChaosExplorer.full_sweep`` — every single-fault sweep at every crash
point, then a batch of seeded multi-fault schedules — and prints a summary.
Exits 1 on any oracle violation, printing the seed and the exact failing schedule so
the run reproduces with ``ChaosExplorer(seed=N).run_schedule(schedule)``.
With ``--trace-dir DIR`` every failing schedule is re-run under a tracer
and its span trace written to ``DIR`` as JSONL — the violation report names
the file, and ``python -m repro.obs --load FILE`` renders the timeline.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.chaos.explorer import ChaosExplorer
from repro.obs.tracer import Tracer, dump_jsonl


def main(argv: list[str] | None = None) -> int:
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
    parser.add_argument("--json", action="store_true", help="emit the summary as JSON")
    parser.add_argument(
        "--trace-dir",
        type=Path,
        default=None,
        help="re-run each failing schedule traced; write span traces here",
    )
    args = parser.parse_args(argv)

    explorer = ChaosExplorer(seed=args.seed)
    golden = explorer.golden
    print(
        f"golden run: {golden.requests_seen} wire requests, "
        f"{len(golden.observations)} observations",
        file=sys.stderr,
    )

    report = explorer.full_sweep(stride=args.stride, random_runs=args.random_runs)

    summary = report.summary()
    summary["seed"] = args.seed
    summary["stride"] = args.stride
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"{report.runs} runs, {report.recovered_fraction:.1%} passed the oracle, "
            f"{report.total_recoveries} recoveries "
            f"(phase 1 mean {report.mean_virtual_session_seconds * 1e3:.3f} ms, "
            f"phase 2 mean {report.mean_sql_state_seconds * 1e3:.3f} ms)"
        )
    if report.failures:
        print(f"seed={args.seed} — {len(report.failures)} FAILING SCHEDULE(S):")
        for i, result in enumerate(report.failures):
            print(f"  {result.describe()}")
            for violation in result.violations:
                print(f"    - {violation}")
            if args.trace_dir is not None:
                # deterministic re-run under a tracer: same trace, same
                # schedule, so the captured spans show the failing timeline
                args.trace_dir.mkdir(parents=True, exist_ok=True)
                tracer = Tracer(enabled=True, seed=args.seed)
                explorer.run_schedule(result.schedule, tracer=tracer)
                path = args.trace_dir / f"failure-{i}.jsonl"
                dump_jsonl(tracer.records, path)
                print(f"    trace: {path} (render: python -m repro.obs --load {path})")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
