"""Chaos engine: systematic crash-schedule exploration for Phoenix sessions.

The paper claims a Phoenix session survives *any* server crash with
exactly-once semantics.  Hand-picked crash positions cannot prove that —
this package does it systematically:

* :mod:`repro.chaos.trace` — a trace is one deterministic step script per
  client (the one-client probe/DML trace is the sweep's); the runner
  executes every client on its own Phoenix connection against a fresh
  system, recording what each application observed plus server-side
  ground truth (status-table rows, direct table fingerprints, orphaned
  sessions).  Its locked restart-on-sleep hook is the operator every chaos
  run and benchmark assumes.
* :mod:`repro.chaos.multi` — the k-client workload: disjoint key ranges of
  one shared table, a barrier inside each client's transaction.
* :mod:`repro.chaos.oracle` — compares each client of a faulted run against
  the same client of the fault-free golden run, then the tables: every DML
  applied exactly once, no lost or duplicated commit replies, result sets
  gap-free and duplicate-free at their recorded offsets, no orphaned
  server-side state after clean close.
* :mod:`repro.chaos.explorer` — counts the golden run's wire requests, then
  re-runs the trace once per placement of each fault kind — wire, storage,
  mid-batch, mid-drain and mid-restore faults at every request index —
  plus a seeded random multi-fault mode (2+ faults per run) whose schedules
  are reproducible from the printed seed, over either transport, for one
  client or k (``sweep_multi`` is the k-client crash sweep).

``python -m repro.chaos --seed N [--transport inprocess tcp]`` runs the
full sweep (CI's ``chaos-smoke`` job), prints its table and, with
``--json``, writes ``BENCH_chaos.json``.
"""

from repro.chaos.explorer import (
    RECOVERY_FAULTS,
    SWEPT_FAULTS,
    ChaosExplorer,
    ChaosReport,
    ChaosRunResult,
    run_sweep,
    sweep_multi,
)
from repro.chaos.multi import multi_client_trace
from repro.chaos.oracle import check_run
from repro.chaos.trace import ChaosTrace, Step, TraceRecord, probe_dml_trace, run_trace

__all__ = [
    "RECOVERY_FAULTS",
    "SWEPT_FAULTS",
    "ChaosExplorer",
    "ChaosReport",
    "ChaosRunResult",
    "ChaosTrace",
    "Step",
    "TraceRecord",
    "check_run",
    "multi_client_trace",
    "probe_dml_trace",
    "run_sweep",
    "run_trace",
    "sweep_multi",
]
