"""The repo's end-to-end benchmark.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    measures one workload in this process and prints, as the last line of
    standard output, one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics`` — the end-to-end metrics untraced, the
    per-layer metrics traced.  This is the form ``BENCHMARK.json`` names.

``python3 benchmarks/e2e/run.py [--quick] [--seed N] [--seconds S] [--out FILE]``
    runs every workload untraced and then traced (a quarter of the length),
    each in a fresh subprocess, prints every metric by name with its unit,
    and writes the results file and the per-layer ledger.

See README.md beside this file for the metric definitions and the method.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("oltp_point", "tpch_power", "write_batch", "crash_recovery")
#: share of a traced run spent before the spans are installed, to measure
#: what tracing costs
UNTRACED_SHARE = 0.2
#: ``--quick`` asks for so short a run that every workload measures one
#: triple of slices
QUICK_SECONDS = 0.2


def steady_process() -> None:
    """Take two sources of run-to-run difference out of the process before
    anything is imported.  String hashing is seeded per process and decides
    the iteration order of the program's sets, so the hash seed is fixed
    (by re-executing once).  The process is kept on one processor: client
    and server threads share one interpreter lock anyway, and where the
    scheduler spreads them, every hand-off pays a cross-processor wake-up
    whose cost on a shared box changes sixfold from minute to minute."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else: a
    copy installed elsewhere would not be the code under test."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import the program under test from {ROOT}/src: {exc}")
    if not os.path.abspath(repro.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported repro from {repro.__file__}, not from this checkout")


def run_one(args) -> int:
    """Measure one workload in this process (the BENCHMARK.json form)."""
    steady_process()
    import_program()
    import harness
    import tracing
    from workloads import WORKLOADS

    started = time.perf_counter()
    load_before = os.getloadavg()
    make_workload = WORKLOADS[args.workload]
    triples, setups = harness.work_for(make_workload, args.seconds)
    speed = harness.SpeedLog()
    try:
        workload, dep, setup = harness.set_up(make_workload, args.seed, speed)
        setup_times = [setup]
        try:
            recorder = None
            if args.trace:
                # an untraced stretch first, so the cost of tracing is
                # measured on this deployment in this run
                recorder = tracing.Recorder()
                records = harness.measure(
                    workload, dep, args.seed, max(1, round(triples * UNTRACED_SHARE)), speed
                )
                untraced = harness.end_to_end(records, setup_times, 0.0)["throughput_ops_s"][0]
                recorder.install()
                traced = harness.measure(
                    workload,
                    dep,
                    args.seed,
                    max(1, triples - len(records) // 3),
                    speed,
                    first_index=len(records),
                    recorder=recorder,
                )
                for record in traced:
                    record.traced = True
                records += traced
            else:
                records = harness.measure(
                    workload, dep, args.seed, triples, speed, tamper=args.inject_wrong_answer
                )
            problems = [e for r in records for e in r.log.errors] + workload.final_check(dep)
            # the process's memory when the fixed work is done — before the
            # set-ups below, which only serve setup_s
            rss_mb = harness.peak_rss_mb()
            if args.trace:
                values, ledger = tracing.analyse(recorder, records, dep, untraced)
        finally:
            dep.close()
        if not args.trace:
            for _ in range(setups - 1):
                _, again, setup = harness.set_up(make_workload, args.seed, speed)
                again.close()
                setup_times.append(setup)
    finally:
        speed.close()
    attempted = sum(len(r.log.samples) for r in records)
    failed = sum(r.log.failed for r in records)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "slices": len(records),
        "speed_index_ms": statistics.median(r.speed[0] for r in records),
        "device_index_ms": statistics.median(r.speed[1] for r in records),
        "flush_policy": "one write+fsync per log append (FileStableStorage)",
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "problems": problems[:20],
    }
    if args.trace:
        detail["ledger"] = ledger
        os.makedirs(OUT_DIR, exist_ok=True)
        recorder.write(os.path.join(OUT_DIR, f"trace-{args.workload}.jsonl"))
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
    else:
        scaled = harness.end_to_end(records, setup_times, rss_mb)
        raw = harness.end_to_end(records, setup_times, rss_mb, scaled=False)
        detail["unscaled"] = {name: value for name, (value, _, _) in raw.items()}
        detail["samples"] = {name: n for name, (_, _, n) in scaled.items()}
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit, _) in scaled.items()}
    detail["wall_seconds"] = time.perf_counter() - started
    correct = not problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    if args.detail:
        with open(args.detail, "w") as out:
            json.dump({**detail, **result}, out, indent=1)
    for problem in problems[:20]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0 if correct else 1


# ------------------------------------------------------------------ all workloads


def probe_speed() -> float:
    """A 1 s look at the box.  Never refuses to run: a slow box only gets a
    warning, because the speed index is there to cope with it."""
    from refkernel import REF_NOMINAL_MS, kernel

    times = []
    until = time.perf_counter() + 1.0
    while time.perf_counter() < until:
        times.append(kernel())
    speed = statistics.median(times)
    if speed > 3 * REF_NOMINAL_MS:
        print(
            f"warning: reference kernel takes {speed:.1f} ms here, more than 3x the nominal "
            f"{REF_NOMINAL_MS} ms; timings are scaled but will be noisier",
            file=sys.stderr,
        )
    return speed


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def child_command(args, workload: str, trace: int, detail: str) -> list[str]:
    seconds = QUICK_SECONDS if args.quick else args.seconds
    return [
        sys.executable,
        os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(seconds / 4 if trace else seconds),
        "--trace", str(trace),
        "--detail", detail,
    ]  # fmt: skip


def run_overlapped(commands: list[list[str]]) -> list[int]:
    """Start every command at once, spread over the processors: a child
    pins itself to the last processor it is allowed, so each is allowed one."""
    allowed = sorted(os.sched_getaffinity(0))
    children = []
    try:
        for i, command in enumerate(commands):
            os.sched_setaffinity(0, {allowed[i % len(allowed)]})
            children.append(subprocess.Popen(command, stdout=subprocess.DEVNULL))
    finally:
        os.sched_setaffinity(0, allowed)
    return [child.wait() for child in children]


def run_all(args) -> int:
    started = time.perf_counter()
    sys.path.insert(0, HERE)
    os.makedirs(OUT_DIR, exist_ok=True)
    environment = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "git_commit": git_commit(),
        "speed_probe_ms": probe_speed(),
        "load_average_before": os.getloadavg(),
        "claim": None,
    }
    jobs = [
        (workload, trace, os.path.join(OUT_DIR, f"{workload}-trace{trace}.json"))
        for trace in (0, 1)
        for workload in WORKLOAD_NAMES
    ]
    commands = [child_command(args, w, t, d) for w, t, d in jobs]
    if args.quick:
        # quick runs check names, counts and oracles, not speed
        codes = run_overlapped(commands)
    else:
        codes = [subprocess.run(c, stdout=subprocess.DEVNULL).returncode for c in commands]
    runs = []
    for (workload, trace, detail), code in zip(jobs, codes):
        if not os.path.exists(detail):
            print(f"{workload} (trace {trace}) produced no result, exit code {code}", file=sys.stderr)
            return 1
        with open(detail) as handle:
            runs.append(json.load(handle))

    from report import print_metrics, write_ledger

    print_metrics(runs)
    ledger_path = os.path.join(OUT_DIR if args.quick else HERE, "LEDGER.md")
    write_ledger(runs, environment, ledger_path)
    environment["load_average_after"] = os.getloadavg()
    environment["total_wall_seconds"] = time.perf_counter() - started
    with open(args.out, "w") as out:
        json.dump({"environment": environment, "runs": runs}, out, indent=1)
    print(f"\nledger: {ledger_path}\nresults: {args.out}")
    print(f"total wall time {environment['total_wall_seconds']:.1f} s")
    return 0 if all(code == 0 for code in codes) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, help="measure this workload only, in this process")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated statements and data")
    parser.add_argument("--seconds", type=float, default=20.0, help="selects the work of a run: about this long on the reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1 = record spans, print per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="all workloads at one triple of slices per run: checks names, counts and oracles")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "results.json"), help="results file of a run of all workloads")
    parser.add_argument("--detail", help="also write this run's result and context to this file")
    parser.add_argument("--inject-wrong-answer", action="store_true", help="corrupt one answer (tests the oracle)")
    args = parser.parse_args()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
