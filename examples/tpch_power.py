"""Reproduce Table 1: the TPC-H power test, native ODBC vs Phoenix/ODBC.

Runs the full query suite plus the RF1/RF2 refresh functions through both
driver managers and prints the paper-shaped comparison table.  Expect the
total-query ratio near 1 (the paper reports ≈1.01 on much longer-running
queries; fixed per-query costs weigh more at micro scale).

Run:  python examples/tpch_power.py [scale_factor] [repetitions]
"""

import sys

from repro.bench.reporting import EXPERIMENTS

sf = float(sys.argv[1]) if len(sys.argv) > 1 else 0.001
reps = int(sys.argv[2]) if len(sys.argv) > 2 else 2

print(f"TPC-H power test at sf={sf}, {reps} repetition(s) per driver ...\n")
table1 = EXPERIMENTS["table1"]
rows = table1.runner(sf=sf, repetitions=reps)
print(table1.render(rows))

total = next(r for r in rows if r.name == "Total Query")
print(
    f"\nPhoenix/native total query ratio: {total.ratio:.3f} "
    f"(paper: ~1.01 on 1999 hardware at SF 1)"
)
