"""Experiment AV — application availability under periodic server crashes.

The paper's opening problem statement, quantified: "database applications
may lose work because of a server failure ... This prevents masking server
failures and degrades application availability" (§1).  We run identical
order-entry session traces through the plain ODBC stack and through
Phoenix/ODBC while the server crashes on every Nth request, and count the
sessions that complete.  Server downtime is identical on both sides (the
operator restarts it immediately); only the *application's* fate differs.

Expected shape: native availability drops with crash frequency; Phoenix
stays at 100% — that is the paper's whole point.
"""

from __future__ import annotations

import pytest

from repro.bench.harness import run_availability_experiment

SESSIONS = 20


# The shorter period must exceed the longest recover-and-replay cycle of the
# trace — 17 wire requests when the crash meets the transfer's COMMIT (10 to
# rebuild the session and reposition the open result, 1 status probe, 5 to
# replay the transaction, 1 to commit it).  Below that, a crash that lands
# inside the transaction livelocks the replay by construction (Experiment
# AV's cliff), and whether one does depends on requests per statement.
@pytest.mark.parametrize("crash_every", [20, 40])
def test_availability_comparison(crash_every):
    results = run_availability_experiment(sessions=SESSIONS, crash_every=crash_every)
    native = results["native"]
    phoenix = results["phoenix"]

    assert phoenix.availability == 1.0, (
        f"Phoenix lost sessions: {phoenix.sessions_completed}/{phoenix.sessions_total}"
    )
    assert native.availability < 1.0, (
        "the chaos schedule should break at least one native session"
    )
    assert phoenix.crashes >= native.crashes, (
        "Phoenix keeps retrying, so it should witness at least as many crashes"
    )


def test_native_availability_degrades_with_crash_rate():
    frequent = run_availability_experiment(sessions=SESSIONS, crash_every=10)["native"]
    rare = run_availability_experiment(sessions=SESSIONS, crash_every=80)["native"]
    assert frequent.availability <= rare.availability
