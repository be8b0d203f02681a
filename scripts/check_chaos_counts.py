#!/usr/bin/env python3
"""Fail when a chaos sweep's counts drift from the committed BENCH_chaos.json.

``python -m repro.chaos --json PATH`` writes one summary per transport.
This compares that document with the committed one, per transport: the
total ``runs`` and ``total_recoveries``, and every fault kind's ``runs``
and ``recoveries`` under ``by_kind``.  Timings are not compared.  The sweep
already exits 1 below 100 % recovered; this catches a change in *how many*
recoveries the same schedules cost, which would otherwise pass silently.

Usage::

    python scripts/check_chaos_counts.py BENCH_chaos.json fresh.json
"""

from __future__ import annotations

import json
import sys


def counts(document: dict) -> dict[str, dict[str, int]]:
    """Transport → the compared counts, flattened to ``name: value``."""
    table = {}
    for summary in document["chaos"]:
        row = {"runs": summary["runs"], "total_recoveries": summary["total_recoveries"]}
        for kind, cell in summary["by_kind"].items():
            row[f"{kind}.runs"] = cell["runs"]
            row[f"{kind}.recoveries"] = cell["recoveries"]
        table[summary["transport"]] = row
    return table


def drift(committed: dict, fresh: dict) -> list[str]:
    """Every count that differs, or is present on one side only."""
    want, got = counts(committed), counts(fresh)
    problems = []
    for transport in sorted(want.keys() | got.keys()):
        expected, actual = want.get(transport, {}), got.get(transport, {})
        for name in sorted(expected.keys() | actual.keys()):
            if expected.get(name) != actual.get(name):
                problems.append(
                    f"{transport} {name}: committed {expected.get(name)}, "
                    f"this run {actual.get(name)}"
                )
    return problems


def main(argv: list[str]) -> int:
    committed, fresh = (json.load(open(path, encoding="utf-8")) for path in argv[1:3])
    problems = drift(committed, fresh)
    for problem in problems:
        print(problem)
    print(f"chaos counts: {len(problems)} drifted from {argv[1]}")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
