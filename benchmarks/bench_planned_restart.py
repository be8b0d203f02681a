"""Experiment PR — planned restarts (drain + swap) vs hard crashes.

The paper recovers sessions from *unplanned* failures (§1, §3); the same
ride-through machinery also makes *planned* maintenance invisible.  An
operator calls ``drain_and_restart()`` under a 16-client UPDATE workload:
in-flight statements finish (or are bounced retryably at the drain
deadline), the engine is checkpointed and swapped, and every Phoenix
session rides through on ordinary session recovery.  The crash baseline
kills the same server the same number of times; clients there pay failure
detection plus ping backoff before recovering.

Expected shape: zero client-visible errors in both phases (Phoenix masks
both), but the planned phase's p99 latency stays strictly below the crash
baseline's — an advertised pause beats an unannounced death.
"""

from __future__ import annotations

from repro.bench.harness import run_planned_restart


def test_planned_restart_zero_errors_and_bounded_pause():
    result = run_planned_restart(clients=16, ops_per_client=30, restarts=2)

    assert result.client_errors == 0, "planned restart leaked errors to clients"
    assert result.fingerprints_match, "planned vs crash durable state diverged"
    assert result.drains_completed == 2
    assert result.sessions_ridden_through >= 16, (
        "every client session should ride through each drain"
    )
    assert result.planned_p99 < result.crash_p99, (
        f"planned p99 {result.planned_p99 * 1e3:.2f} ms should beat crash "
        f"baseline {result.crash_p99 * 1e3:.2f} ms"
    )
    assert result.max_pause_seconds > 0.0
