"""Reproduce Figure 2: session recovery time over varying result sizes.

Runs the paper's recovery experiment — query, fetch to near the end, crash,
restart, measure Phoenix recovering the session — across a sweep of result
sizes, and prints the figure's two stacked components (virtual session /
SQL state) plus the recompute comparison from §4.

Run:  python examples/session_recovery_timing.py
"""

from repro.bench.reporting import EXPERIMENTS

fig2 = EXPERIMENTS["fig2"]
print("sweeping result sizes (this builds a 20k-row detail table) ...\n")
points = fig2.runner()
print(fig2.render(points))

flat = [p.virtual_session_seconds for p in points]
print(
    f"\nvirtual-session phase stays flat ({min(flat) * 1e3:.2f}–{max(flat) * 1e3:.2f} ms) "
    "across result sizes — the paper's constant 0.37 s line."
)
worst = max(points, key=lambda p: p.recovery_vs_recompute)
print(
    f"recovery beats recomputation at every size "
    f"(worst ratio {worst.recovery_vs_recompute:.2f} at {worst.result_size} rows)."
)
