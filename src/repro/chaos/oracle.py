"""The exactly-once oracle: golden run vs. faulted run.

Each client of the faulted run is judged against the same client of the
golden run (with more than one client, its violations are prefixed
``client i:``), then the run as a whole.  Each check maps to one of the
paper's guarantees:

* **observations** — everything the application saw must be bit-identical
  to the golden run: result-set blocks at their recorded offsets (gap-free
  and duplicate-free delivery), DML rowcounts, commit/rollback
  acknowledgements in order.  A lost or duplicated commit reply, a skipped
  or re-delivered row, or an application-visible error all surface here.
* **status rows** — a client's Phoenix status table is the server-side
  truth of which of its wrapped statements and commits ran; set equality
  with the golden run means every DML applied exactly once (no row: lost;
  extra or diverging row: duplicated/diverged).
* **fingerprints** — direct table content comparison, independent of the
  status table, so a bug that fooled the testable-state machinery is still
  caught.
* **hygiene** — after a clean close the server must hold no orphaned
  sessions or cursors and no leftover ``phx_*`` objects.
* **time travel** — moments pinned between steps while the run executed
  must still reconstruct (``AS OF``) to the fingerprints captured live,
  across every crash, recovery, checkpoint and restore to now in between:
  the log holds every commit, so each pinned cut stays reachable (the run
  carries its violations in ``time_travel_violations``).
"""

from __future__ import annotations

from repro.chaos.trace import ClientRecord, TraceRecord

__all__ = ["check_run"]


def check_run(golden: TraceRecord, run: TraceRecord) -> list[str]:
    """Compare ``run`` against ``golden``; returns violations (empty = pass)."""
    violations: list[str] = []
    several = len(golden.clients) > 1
    for i, (expected, actual) in enumerate(zip(golden.clients, run.clients)):
        prefix = f"client {i}: " if several else ""
        violations += [prefix + v for v in _check_client(expected, actual)]

    for table, expected in golden.fingerprints.items():
        actual = run.fingerprints.get(table)
        if actual != expected:
            violations.append(
                f"table {table} diverged from golden fingerprint: "
                f"expected {len(expected)} rows, got "
                f"{'<absent>' if actual is None else len(actual)} "
                f"(first diff: {_first_row_diff(expected, actual)})"
            )

    violations.extend(run.time_travel_violations)

    if run.orphan_sessions:
        violations.append(
            f"{run.orphan_sessions} orphaned server session(s) "
            f"({run.orphan_cursors} cursor(s)) after clean close"
        )
    if run.leftover_tables != golden.leftover_tables:
        violations.append(
            f"leftover phx_* objects after close: {sorted(run.leftover_tables)}"
        )
    return violations


def _check_client(golden: ClientRecord, run: ClientRecord) -> list[str]:
    violations: list[str] = []
    if not run.completed:
        violations.append(f"run did not complete cleanly: {run.error}")
    if run.observations != golden.observations:
        violations.append(_first_divergence(golden.observations, run.observations))
    if run.status_rows != golden.status_rows:
        violations.extend(_status_diff(golden.status_rows, run.status_rows))
    return violations


def _first_divergence(golden: list, run: list) -> str:
    for i, (expected, actual) in enumerate(zip(golden, run)):
        if expected != actual:
            return (
                f"observation {i} diverged: expected {expected!r}, got {actual!r}"
            )
    if len(run) < len(golden):
        return (
            f"observations truncated at {len(run)}/{len(golden)}: "
            f"next expected {golden[len(run)]!r}"
        )
    return (
        f"extra observations past {len(golden)}: first extra {run[len(golden)]!r}"
    )


def _status_diff(golden: frozenset | None, run: frozenset | None) -> list[str]:
    if golden is None or run is None:
        return [
            f"status table presence diverged: golden "
            f"{'present' if golden is not None else 'absent'}, run "
            f"{'present' if run is not None else 'absent'}"
        ]
    out = []
    lost = golden - run
    if lost:
        out.append(f"status rows lost (statement never applied): {sorted(lost)}")
    extra = run - golden
    if extra:
        out.append(f"status rows diverged/duplicated: {sorted(extra)}")
    return out


def _first_row_diff(expected: tuple, actual: tuple | None) -> str:
    if actual is None:
        return "table absent"
    for i, (e, a) in enumerate(zip(expected, actual)):
        if e != a:
            return f"row {i}: expected {e!r}, got {a!r}"
    return f"length {len(expected)} vs {len(actual)}"
