#!/usr/bin/env python3
"""Time the rewrite Phoenix applies to a parsed statement — redirecting
temp names — on an OLTP text and on a TPC-H text::

    PYTHONPATH=src python scripts/time_statement_rewrites.py

It calls only ``parse`` and ``redirect_names``, so pointing ``PYTHONPATH``
at another commit's ``src`` times that commit (the before/after table in
EXPERIMENTS.md).  Bound values are not a rewrite: they travel beside the
text.  Each figure is the best of 7 timed loops, in µs per call.
"""

from __future__ import annotations

import timeit

from repro.core.interceptor import redirect_names
from repro.sql import parse
from repro.workloads.tpch.queries import query_sql

TEXTS = {
    "oltp update": "UPDATE acct SET v = v + 1 WHERE k = ?",
    "tpch Q2": query_sql("Q2"),
}
#: ``hit``: one table of each text is redirected; ``miss``: the map matches no name
MAPS = {"hit": {"acct": "phx_tmp_acct", "partsupp": "phx_tmp_partsupp"}, "miss": {"#w": "phx_tmp_w"}}


def best_us(call) -> float:
    number = 2000
    return min(timeit.repeat(call, number=number, repeat=7)) / number * 1e6


def main() -> None:
    print(f"{'text':<12} {'redirect (hit)':>15} {'redirect (miss)':>16}")
    for name, text in TEXTS.items():
        stmt = parse(text)
        hit = best_us(lambda: redirect_names(stmt, MAPS["hit"]))
        miss = best_us(lambda: redirect_names(stmt, MAPS["miss"]))
        print(f"{name:<12} {hit:15.1f} {miss:16.1f}")


if __name__ == "__main__":
    main()
