"""A/A check: does the benchmark agree with itself?

Runs two sets of five full runs of the current tree, interleaved A B B A …,
each run every workload untraced with its own seed, then appends what it
measured to ``AA_REPORT.json`` (every check that was run stays in the file;
delete it when the benchmark's code changes) and rewrites the table between
the ``aa`` markers of README.md from all the checks in the file: per metric ×
workload the two set medians, their gap against the bound, and the quartile
spread of the ten values, scaled and unscaled, followed by the cells that miss
a criterion.

    python3 benchmarks/e2e/aa.py                 # ~18 minutes
    python3 benchmarks/e2e/aa.py --table-only    # after changing a bound
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
ORDER = "ABBAABBAAB"
BEGIN, END = "<!-- aa:begin -->", "<!-- aa:end -->"
TIMINGS_AT_10_PERCENT = (
    "throughput_ops_s", "select_p50_ms", "dml_p50_ms", "phoenix_vs_plain_ratio",
)  # fmt: skip
REPORT_PATH = os.path.join(HERE, "AA_REPORT.json")


def spread(values: list[float]) -> float:
    """Distance between first and third quartile, as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def check(spec: dict, first_seed: int) -> dict | None:
    """Run the ten runs; returns the report, or None if a run failed."""
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    detail = os.path.join(HERE, "out", "aa-run.json")
    started = time.time()
    # values[workload][metric] = [(set, scaled, unscaled), ...]
    values: dict[str, dict[str, list]] = {}
    for position, which in enumerate(ORDER):
        for workload in (w["name"] for w in spec["workloads"]):
            command = spec["command"] + [
                "--workload", workload,
                "--seed", str(first_seed + position),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
                "--detail", detail,
            ]  # fmt: skip
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL)
            if done.returncode != 0:
                print(f"{workload} seed {first_seed + position} failed", file=sys.stderr)
                return None
            with open(detail) as handle:
                run = json.load(handle)
            for name, metric in run["metrics"].items():
                values.setdefault(workload, {}).setdefault(name, []).append(
                    (which, metric["value"], run["unscaled"][name])
                )
        print(f"run {position + 1}/{len(ORDER)} (set {which}) done, {time.time() - started:.0f} s")

    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    rows = []
    for workload, metrics in values.items():
        for name, samples in metrics.items():
            a = statistics.median(v for which, v, _ in samples if which == "A")
            b = statistics.median(v for which, v, _ in samples if which == "B")
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "median_a": a,
                    "median_b": b,
                    "gap": abs(b - a) / a,
                    # how much worse B's median is than A's (negative = better)
                    "b_worse_by": (b - a) / a if better[name] == "lower" else (a - b) / a,
                    "spread_scaled": spread([v for _, v, _ in samples]),
                    "spread_unscaled": spread([u for _, _, u in samples]),
                    "values": [v for _, v, _ in samples],
                }
            )
    return {
        "finished": time.strftime("%Y-%m-%d %H:%M:%S"),
        "order": ORDER,
        "first_seed": first_seed,
        "run_seconds": spec["run_seconds"],
        "wall_seconds": time.time() - started,
        "claim": None,
        "rows": rows,
    }


def misses(metric: str, bound: float, cells: list[dict]) -> list[str]:
    """The criteria a metric x workload cell does not meet in some check."""
    found = []
    if any(cell["gap"] > bound for cell in cells):
        found.append("the set medians differ by more than the bound")
    widest = max(cell["spread_scaled"] for cell in cells)
    if widest > bound:
        found.append("spread wider than the bound")
    elif metric != "setup_s" and widest > bound / 3:
        found.append("spread wider than a third of the bound")
    if any(cell["spread_scaled"] > cell["spread_unscaled"] for cell in cells):
        found.append("scaled spread wider than unscaled")
    if metric in TIMINGS_AT_10_PERCENT and widest > 0.10:
        found.append("spread above 10 %")
    return found


def write_table(spec: dict, reports: list[dict]) -> int:
    """Rewrite the README's table from every stored check, against the
    bounds BENCHMARK.json has now; returns the number of gaps over a bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    cells: dict[tuple[str, str], list[dict]] = {}
    for report in reports:
        for row in report["rows"]:
            cells.setdefault((row["workload"], row["metric"]), []).append(row)

    def each(rows: list[dict], key: str) -> str:
        return " · ".join(f"{100 * row[key]:.1f}" for row in rows)

    table = [
        BEGIN,
        f"{len(reports)} checks, finished {', '.join(r['finished'] for r in reports)}; "
        "a cell shows one value per check, in %.",
        "",
        "| workload | metric | median A | median B | gap | bound | spread scaled | spread unscaled |",
        "|---|---|---:|---:|---:|---:|---:|---:|",
    ]
    missed, over = [], 0
    for (workload, metric), rows in cells.items():
        bound = bounds[metric]
        over += sum(row["gap"] > bound for row in rows)
        table.append(
            f"| {workload} | `{metric}` | {rows[-1]['median_a']:.4g} | {rows[-1]['median_b']:.4g} "
            f"| {each(rows, 'gap')} | {100 * bound:.0f} "
            f"| {each(rows, 'spread_scaled')} | {each(rows, 'spread_unscaled')} |"
        )
        found = misses(metric, bound, rows)
        if found:
            missed.append(f"- {workload} `{metric}`: {'; '.join(found)}")
    table.append("")
    table += ["Cells that miss a criterion in some check:", ""] + missed if missed else [
        "Every cell meets every criterion in every check."
    ]
    table.append(END)
    readme_path = os.path.join(HERE, "README.md")
    with open(readme_path) as handle:
        readme = handle.read()
    head, _, rest = readme.partition(BEGIN)
    _, _, tail = rest.partition(END)
    with open(readme_path, "w") as out:
        out.write(head + "\n".join(table) + tail)
    total = sum(len(rows) for rows in cells.values())
    print(f"{total - over}/{total} set-median gaps within their bound")
    return over


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--table-only", action="store_true", help="no runs: rewrite the README table from the stored checks")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    reports = []
    if os.path.exists(REPORT_PATH):
        with open(REPORT_PATH) as handle:
            reports = json.load(handle)["reports"]
    if not args.table_only:
        report = check(spec, args.first_seed)
        if report is None:
            return 1
        reports.append(report)
        with open(REPORT_PATH, "w") as out:
            json.dump({"reports": reports}, out, indent=1)
            out.write("\n")
    return 1 if write_table(spec, reports) else 0


if __name__ == "__main__":
    sys.exit(main())
