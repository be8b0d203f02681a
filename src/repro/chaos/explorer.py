"""Systematic crash-schedule exploration.

:class:`ChaosExplorer` first executes the trace fault-free and counts how
many wire requests the whole run makes (the *golden* run).  Every request
index is then a crash point: the single-fault sweep re-runs the trace once
per ``(fault kind, request index)`` pair — all four wire faults and both
storage faults at every index — and the oracle compares each run against
the golden record.  A seeded random mode layers 2+ faults per run on top;
its schedules derive from ``random.Random(seed)`` only, so any failure
reproduces from the printed seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from repro.chaos.oracle import check_run
from repro.chaos.trace import ChaosTrace, TraceRecord, probe_dml_trace, run_trace
from repro.net.faults import (
    DRAIN_FAULTS,
    RESTORE_FAULTS,
    STORAGE_FAULTS,
    WIRE_FAULTS,
    FaultKind,
)

__all__ = ["ChaosExplorer", "ChaosReport", "ChaosRunResult"]

#: entries are (request_index, kind) or (request_index, kind, arg)
Schedule = tuple[tuple, ...]


@dataclass
class ChaosRunResult:
    """One faulted run, judged against the golden record."""

    schedule: Schedule
    violations: list[str]
    completed: bool
    fired: tuple[str, ...]
    recoveries: int
    requests_seen: int
    virtual_session_seconds: float
    sql_state_seconds: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.violations

    def describe(self) -> str:
        parts = []
        for entry in self.schedule:
            after, kind = entry[0], entry[1]
            arg = entry[2] if len(entry) > 2 else None
            suffix = f"[{arg}]" if arg is not None else ""
            parts.append(f"{kind.value}{suffix}@{after}")
        return f"[{', '.join(parts)}]"


@dataclass
class ChaosReport:
    """Aggregate of a sweep: every run plus the recovery-time split."""

    golden_requests: int
    results: list[ChaosRunResult] = field(default_factory=list)

    @property
    def runs(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> list[ChaosRunResult]:
        return [r for r in self.results if not r.ok]

    @property
    def recovered_fraction(self) -> float:
        if not self.results:
            return 1.0
        return sum(1 for r in self.results if r.ok) / len(self.results)

    @property
    def total_recoveries(self) -> int:
        return sum(r.recoveries for r in self.results)

    @property
    def mean_virtual_session_seconds(self) -> float:
        """Mean phase-1 (virtual session rebuild) time per recovery."""
        n = self.total_recoveries
        return sum(r.virtual_session_seconds for r in self.results) / n if n else 0.0

    @property
    def mean_sql_state_seconds(self) -> float:
        """Mean phase-2 (SQL state restoration) time per recovery."""
        n = self.total_recoveries
        return sum(r.sql_state_seconds for r in self.results) / n if n else 0.0

    def merge(self, other: "ChaosReport") -> "ChaosReport":
        self.results.extend(other.results)
        return self

    def summary(self) -> dict:
        return {
            "golden_requests": self.golden_requests,
            "runs": self.runs,
            "recovered_fraction": self.recovered_fraction,
            "total_recoveries": self.total_recoveries,
            "mean_virtual_session_seconds": self.mean_virtual_session_seconds,
            "mean_sql_state_seconds": self.mean_sql_state_seconds,
            "failures": [
                {"schedule": r.describe(), "violations": r.violations}
                for r in self.failures
            ],
        }


class ChaosExplorer:
    """Drives sweeps of one trace and judges every run against its golden."""

    def __init__(self, trace: ChaosTrace | None = None, *, seed: int = 0):
        self.trace = trace if trace is not None else probe_dml_trace()
        self.seed = seed

    @cached_property
    def golden(self) -> TraceRecord:
        record = run_trace(self.trace)
        if not record.completed:
            raise RuntimeError(f"golden run failed: {record.error}")
        if record.fired:
            raise RuntimeError(f"golden run saw faults fire: {record.fired}")
        return record

    # -- running ------------------------------------------------------------

    def run_schedule(self, schedule: Schedule, *, tracer=None) -> ChaosRunResult:
        """Run one faulted schedule; pass a ``repro.obs.Tracer`` to capture
        the run as a span trace (see :func:`repro.chaos.trace.run_trace`)."""
        record = run_trace(self.trace, schedule, tracer=tracer)
        return ChaosRunResult(
            schedule=tuple(schedule),
            violations=check_run(self.golden, record),
            completed=record.completed,
            fired=record.fired,
            recoveries=record.recoveries,
            requests_seen=record.requests_seen,
            virtual_session_seconds=record.virtual_session_seconds,
            sql_state_seconds=record.sql_state_seconds,
            error=record.error,
        )

    def _sweep(self, kinds: tuple[FaultKind, ...], *, stride: int = 1) -> ChaosReport:
        report = ChaosReport(golden_requests=self.golden.requests_seen)
        for kind in kinds:
            for index in range(0, self.golden.requests_seen, stride):
                report.results.append(self.run_schedule(((index, kind),)))
        return report

    def sweep_single_faults(
        self,
        kinds: tuple[FaultKind, ...] = WIRE_FAULTS,
        *,
        stride: int = 1,
    ) -> ChaosReport:
        """One wire fault per run, at every crash point (``stride`` thins
        the index grid for quick smoke runs)."""
        return self._sweep(kinds, stride=stride)

    def sweep_storage_faults(self, *, stride: int = 1) -> ChaosReport:
        """Torn WAL tail and failed force, armed at every request index."""
        return self._sweep(STORAGE_FAULTS, stride=stride)

    def sweep_batch_faults(self, *, stride: int = 1) -> ChaosReport:
        """CRASH_MID_BATCH at every interior position of every batch request.

        The golden run records each BatchExecuteRequest's index and size;
        for an N-statement batch the kill is placed after 0..N executed
        sub-statements (N = every sub-statement ran but the group force has
        not — all its commits are still deferred and die with the server).
        Every position must recover to the same exactly-once outcome.
        """
        report = ChaosReport(golden_requests=self.golden.requests_seen)
        for index, size in self.golden.batch_requests:
            for executed in range(0, size + 1, stride):
                report.results.append(
                    self.run_schedule(((index, FaultKind.CRASH_MID_BATCH, executed),))
                )
        return report

    def sweep_drain_faults(self, *, stride: int = 1) -> ChaosReport:
        """CRASH_MID_DRAIN at every request index, at both kill positions.

        A planned restart begins while the scheduled request is in flight
        and the process dies inside it: arg 0 kills during the drain window
        (nothing checkpointed by the drain), arg 1 during the swap (after
        the checkpoint, before the fresh engine boots).  Both must degrade
        into the ordinary crash-recovery path with exactly-once outcomes —
        a planned restart must never be *less* safe than a crash.
        """
        report = ChaosReport(golden_requests=self.golden.requests_seen)
        for kind in DRAIN_FAULTS:
            for index in range(0, self.golden.requests_seen, stride):
                for arg in (0, 1):
                    report.results.append(self.run_schedule(((index, kind, arg),)))
        return report

    def sweep_restore_faults(self, *, stride: int = 1) -> ChaosReport:
        """CRASH_MID_RESTORE at every request index, at both kill positions.

        A ``restore_to`` begins while the scheduled request is in flight and
        the process dies inside it: arg 0 kills during the drain window
        (storage untouched), arg 1 after the storage rewrite — a restore *to
        now*, which preserves every committed transaction, so the golden
        comparison stays valid — but before the fresh engine boots.  Both
        must degrade into ordinary crash recovery with exactly-once
        outcomes: a restore must never be *less* safe than a crash.
        """
        report = ChaosReport(golden_requests=self.golden.requests_seen)
        for kind in RESTORE_FAULTS:
            for index in range(0, self.golden.requests_seen, stride):
                for arg in (0, 1):
                    report.results.append(self.run_schedule(((index, kind, arg),)))
        return report

    # -- seeded multi-fault mode --------------------------------------------

    def random_schedules(
        self, count: int, *, min_faults: int = 2, max_faults: int = 4
    ) -> list[Schedule]:
        """``count`` reproducible multi-fault schedules from ``self.seed``.

        Indexes range 20% past the golden request count because recovery
        traffic makes faulted runs longer than the golden run; a fault
        scheduled past the run's actual end simply never fires.
        """
        rng = random.Random(self.seed)
        kinds = WIRE_FAULTS + STORAGE_FAULTS
        horizon = int(self.golden.requests_seen * 1.2) + 1
        schedules = []
        for _ in range(count):
            n_faults = rng.randint(min_faults, max_faults)
            schedule = tuple(
                sorted(
                    ((rng.randrange(horizon), rng.choice(kinds)) for _ in range(n_faults)),
                    key=lambda pair: (pair[0], pair[1].value),
                )
            )
            schedules.append(schedule)
        return schedules

    def sweep_random(
        self, count: int, *, min_faults: int = 2, max_faults: int = 4
    ) -> ChaosReport:
        report = ChaosReport(golden_requests=self.golden.requests_seen)
        for schedule in self.random_schedules(
            count, min_faults=min_faults, max_faults=max_faults
        ):
            report.results.append(self.run_schedule(schedule))
        return report

    def full_sweep(self, *, stride: int = 1, random_runs: int = 24) -> ChaosReport:
        """The sweep ``python -m repro.chaos`` and the ``chaos`` bench
        artifact both mean: wire, storage, mid-batch and mid-drain faults at
        every crash point (thinned by ``stride``), then ``random_runs``
        seeded multi-fault schedules.  (Mid-restore faults have their own
        CI step, ``timetravel-smoke``.)"""
        report = self.sweep_single_faults(stride=stride)
        report.merge(self.sweep_storage_faults(stride=stride))
        report.merge(self.sweep_batch_faults(stride=stride))
        report.merge(self.sweep_drain_faults(stride=stride))
        report.merge(self.sweep_random(random_runs))
        return report
