"""Figure 2 — elapsed time for session recovery over varying result sizes.

The paper's experiment: run a query, fetch to near the end, kill the
server, restart it, and time Phoenix recovering the session and answering
the outstanding fetch — split into the *virtual session* phase (constant,
0.37 s in the paper) and the *SQL state* phase (repositioning, grows with
the result).  §4 also claims recovery costs "less than a tenth of the time
required to simply recompute" the query; we assert the weaker shape
(recovery strictly cheaper than recompute) and record the measured ratio in
EXPERIMENTS.md.

Full series: ``python -m repro.bench.reporting fig2``.  The gated form of
the §4 claim is ``phoenix_vs_plain_ratio`` of ``benchmarks/e2e/run.py
--workload crash_recovery`` (real files, real TCP).
"""

from __future__ import annotations

from repro.bench.harness import run_fig2_recovery_sweep

TABLE_ROWS = 12_000


def test_fig2_shape():
    """Pin the figure's qualitative claims on one fresh sweep:

    * virtual-session recovery time is independent of result size;
    * total recovery beats recomputation at every size.
    """
    points = run_fig2_recovery_sweep(
        result_sizes=[100, 1000, 2500], table_rows=TABLE_ROWS
    )
    virtuals = [p.virtual_session_seconds for p in points]
    assert max(virtuals) < 0.1, "virtual session recovery should be near-instant"
    # size-independence: the largest result's virtual phase is within an
    # order of magnitude of the smallest's (absolute values are sub-ms)
    assert max(virtuals) < 10 * max(min(virtuals), 1e-4)
    for point in points:
        assert point.recovery_seconds < point.recompute_seconds, (
            f"recovery ({point.recovery_seconds:.4f}s) should beat recompute "
            f"({point.recompute_seconds:.4f}s) at size {point.result_size}"
        )


def test_fig2_recovery_vs_recompute_ratio():
    """§4's stronger claim, on the compute-heavy end: with a large detail
    table and the paper's ~2500-row result, recovery costs a small fraction
    of recomputation."""
    (point,) = run_fig2_recovery_sweep(result_sizes=[2500], table_rows=20_000)
    assert point.recovery_vs_recompute < 0.75, (
        f"recovery/recompute = {point.recovery_vs_recompute:.2f}"
    )
