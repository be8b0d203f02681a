"""Print-out of a run of all workloads, and the per-layer ledger."""

from __future__ import annotations

import time

# as in harness.py, which this module does not import: it reads result
# files and has to work where the program under test cannot be imported
PHOENIX, PLAIN = "phoenix", "plain"

LAYER_NOTES = {
    "core.recovery": "Phoenix detect / ping / phase 1 / phase 2",
    "core": "Phoenix cursor and connection: rewrite, wrap, materialise, deliver",
    "odbc": "plain driver manager and native driver calls",
    "net.codec": "encode_message / decode_message, both sides",
    "net": "frame, socket, loop hand-off, endpoint dispatch",
    "engine.dispatch": "queue wait, submit to worker start",
    "engine.server": "DatabaseServer entry points: mutex, session, result build",
    "sql": "parse_script / parse, client and server",
    "engine.executor": "Executor.execute: plan, run, lock and log calls excluded",
    "engine.locks": "LockManager.acquire",
    "engine.wal": "WriteAheadLog append / force bookkeeping, device excluded",
    "engine.storage": "append_log / write_table_file: write + fsync, by the device index",
    "engine.recovery": "DatabaseServer.restart from files",
}


def print_metrics(runs: list[dict]) -> None:
    for run in runs:
        kind = "per-layer (traced)" if run["trace"] else "end-to-end"
        print(
            f"\n== {run['workload']} · {kind} · seed {run['seed']} · {run['slices']} slices · "
            f"speed index {run['speed_index_ms']:.2f} ms · "
            f"device index {run['device_index_ms']:.3f} ms · wall {run['wall_seconds']:.1f} s · "
            f"attempted {run['attempted']} failed {run['failed']} correct {run['correct']}"
        )
        for name, metric in run["metrics"].items():
            line = f"  {name:48s} {metric['value']:14.4f} {metric['unit']:6s}"
            if not run["trace"]:
                line += f"  unscaled {run['unscaled'][name]:14.4f}  n={run['samples'][name]}"
            print(line)


def write_ledger(runs: list[dict], environment: dict, path: str) -> None:
    """One table per workload: layer self times per application statement,
    Phoenix beside plain, summing to the statement time the harness saw."""
    untraced = {run["workload"]: run for run in runs if not run["trace"]}
    lines = [
        "# Steady-state cost ledger",
        "",
        "Written by `benchmarks/e2e/run.py` from its traced runs; do not edit.",
        f"Generated {time.strftime('%Y-%m-%d %H:%M:%S')} · seed {environment['seed']} · "
        f"python {environment['python']} · nproc {environment['nproc']} · "
        f"commit {environment['git_commit']}.",
        "",
        "Times are milliseconds of *self* time per application statement at reference",
        "speed (a span minus what its child spans cover), summed over the statements of",
        "the traced slices.  `session` is connect and close, spread over the slice's",
        "statements.  Tracing slows the run by `trace.overhead_ratio`, so the columns",
        "attribute the traced run; the untraced figures are quoted below each table.",
    ]
    for run in runs:
        if not run["trace"]:
            continue
        ledger = run["ledger"]
        layers = ledger["layers_ms_per_op"]
        lines += [
            "",
            f"## {run['workload']}",
            "",
            "| layer | Phoenix | plain | Phoenix − plain | what it is |",
            "|---|---:|---:|---:|---|",
        ]
        for layer, note in LAYER_NOTES.items():
            a, b = layers[PHOENIX][layer], layers[PLAIN][layer]
            if a or b:
                lines.append(f"| `{layer}` | {a:.3f} | {b:.3f} | {a - b:+.3f} | {note} |")
        total = {side: sum(layers[side].values()) for side in (PHOENIX, PLAIN)}
        seen = ledger["statement_ms_per_op"]
        session = ledger["session_ms_per_op"]
        lines += [
            f"| **sum of layers** | **{total[PHOENIX]:.3f}** | **{total[PLAIN]:.3f}** "
            f"| {total[PHOENIX] - total[PLAIN]:+.3f} | |",
            f"| statement time seen by the harness | {seen[PHOENIX]:.3f} | {seen[PLAIN]:.3f} "
            f"| {seen[PHOENIX] - seen[PLAIN]:+.3f} | mean per statement, same traced slices |",
            f"| session | {session[PHOENIX]:.3f} | {session[PLAIN]:.3f} "
            f"| {session[PHOENIX] - session[PLAIN]:+.3f} | connect + close, per statement |",
            "",
            "| per statement | Phoenix | plain |",
            "|---|---:|---:|",
        ]
        for counter, values in _by_counter(ledger["per_op_counts"]).items():
            lines.append(f"| {counter} | {values[PHOENIX]:.3f} | {values[PLAIN]:.3f} |")
        metrics = run["metrics"]
        lines += [
            "",
            f"Layers cover {100 * (1 - metrics['trace.unattributed_share']['value']):.1f} % of the "
            f"Phoenix statement time; tracing overhead ratio "
            f"{metrics['trace.overhead_ratio']['value']:.2f}.",
        ]
        plain_run = untraced.get(run["workload"])
        if plain_run:
            e2e = plain_run["metrics"]
            lines.append(
                f"Untraced run: select p50 {e2e['select_p50_ms']['value']:.3f} ms, "
                f"dml p50 {e2e['dml_p50_ms']['value']:.3f} ms, "
                f"{1e3 / e2e['throughput_ops_s']['value']:.3f} ms per statement with session, "
                f"Phoenix ÷ plain {e2e['phoenix_vs_plain_ratio']['value']:.3f}."
            )
    with open(path, "w") as out:
        out.write("\n".join(lines) + "\n")


def _by_counter(per_side: dict) -> dict:
    return {
        counter: {side: per_side[side][counter] for side in per_side}
        for counter in per_side[PHOENIX]
    }
