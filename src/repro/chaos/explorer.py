"""Systematic crash-schedule exploration.

:class:`ChaosExplorer` first executes the trace fault-free and counts how
many wire requests the whole run makes (the *golden* run).  Every request
index is then a crash point: :meth:`ChaosExplorer.sweep` re-runs the trace
once per placement of each fault kind — wire, storage, mid-batch,
mid-drain and mid-restore faults at every index — and the oracle compares
each run against the golden record.  A seeded random mode layers 2+ faults
per run on top; its schedules derive from ``random.Random(seed)`` only, so
any failure reproduces from the printed seed.  The transport is a
parameter: the same sweep runs in-process or over real sockets, and so
is the trace: one client or k.

A *second-order* sweep aims at recovery itself: every single wire fault
whose run rebuilds the session is run once under a tracer, the requests
its recoveries sent are read off the ``recovery`` spans, and each of
``RECOVERY_FAULTS`` is placed at each of them on top of the first fault.

``python -m repro.chaos`` is the sweep's one front end (CI runs it, and it
alone regenerates ``BENCH_chaos.json``): it runs :func:`run_sweep`, and
:meth:`ChaosReport.summary` is the document.  :func:`sweep_multi` is the
k-client crash sweep the concurrency experiment reports.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cached_property

from repro.chaos.multi import multi_client_trace
from repro.chaos.oracle import check_run
from repro.chaos.trace import ChaosTrace, TraceRecord, probe_dml_trace, run_trace
from repro.obs.tracer import Tracer
from repro.net.faults import (
    BATCH_FAULTS,
    DRAIN_FAULTS,
    RESTORE_FAULTS,
    STORAGE_FAULTS,
    WIRE_FAULTS,
    FaultKind,
)

__all__ = [
    "RECOVERY_FAULTS",
    "SWEPT_FAULTS",
    "TRANSPORTS",
    "ChaosExplorer",
    "ChaosReport",
    "ChaosRunResult",
    "run_sweep",
    "sweep_multi",
]

#: entries are (request_index, kind) or (request_index, kind, arg)
Schedule = tuple[tuple, ...]

#: every fault kind a sweep places, in sweep order
SWEPT_FAULTS = WIRE_FAULTS + STORAGE_FAULTS + BATCH_FAULTS + DRAIN_FAULTS + RESTORE_FAULTS

#: the kinds a second-order schedule places at each request a recovery sent
RECOVERY_FAULTS = (
    FaultKind.CRASH_BEFORE_EXECUTE,
    FaultKind.CRASH_AFTER_EXECUTE,
    FaultKind.DROP_CONNECTION,
)

#: how the server refuses a request while it is down — before the fault
#: injector inspects it, so such a request takes no request index
_REFUSED = "ServerCrashedError: connection refused: server is down"

#: what ``run_trace(transport=...)`` accepts
TRANSPORTS = ("inprocess", "tcp")


@dataclass
class ChaosRunResult:
    """One faulted run, judged against the golden record."""

    schedule: Schedule
    violations: list[str]
    fired: tuple[str, ...]
    recoveries: int
    deadlock_retries: int
    virtual_session_seconds: float
    sql_state_seconds: float
    #: the client whose COMMIT a targeted crash hit (``run_trace(victim=)``)
    victim: int | None = None
    #: the ``by_kind`` cell the run counts in: its kind for a single fault
    #: (the default), ``<kind> in recovery`` for a second-order schedule,
    #: else ``multi_fault``
    label: str = ""

    def __post_init__(self) -> None:
        if not self.label:
            single = len(self.schedule) == 1
            self.label = self.schedule[0][1].value if single else "multi_fault"

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
        if self.victim is not None:
            parts.append(f"crash_before_execute@commit of client {self.victim}")
        return f"[{', '.join(parts)}]"


@dataclass
class ChaosReport:
    """Aggregate of a sweep: every run plus the recovery-time split."""

    golden_requests: int
    results: list[ChaosRunResult] = field(default_factory=list)
    seed: int = 0
    transport: str = "inprocess"
    elapsed_seconds: float = 0.0

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

    @property
    def by_kind(self) -> dict[str, dict[str, float]]:
        """One cell per fault kind of the single-fault runs, in sweep order,
        then ``multi_fault`` for the seeded multi-fault runs (second-order
        runs count per kind, as ``<kind> in recovery``): how many runs,
        the share the oracle passed, and the recoveries they took."""
        groups: dict[str, list[ChaosRunResult]] = {}
        for r in self.results:
            groups.setdefault(r.label, []).append(r)
        return {
            label: {
                "runs": len(group),
                "recovered_fraction": sum(1 for r in group if r.ok) / len(group),
                "recoveries": sum(r.recoveries for r in group),
            }
            for label, group in groups.items()
        }

    def summary(self) -> dict:
        """The sweep as ``BENCH_chaos.json`` documents it.
        ``recovered_fraction`` is the headline (1.0 = every schedule passed
        the exactly-once oracle); the per-kind cells and the phase-1/phase-2
        recovery-time split say *where* recovery spends its time under each
        fault shape; ``failures`` is empty on a green sweep."""
        return {
            "transport": self.transport,
            "seed": self.seed,
            "golden_requests": self.golden_requests,
            "runs": self.runs,
            "recovered_fraction": self.recovered_fraction,
            "total_recoveries": self.total_recoveries,
            "mean_virtual_session_seconds": self.mean_virtual_session_seconds,
            "mean_sql_state_seconds": self.mean_sql_state_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "by_kind": self.by_kind,
            "failures": [
                {"schedule": r.describe(), "violations": r.violations}
                for r in self.failures
            ],
        }


class ChaosExplorer:
    """Drives sweeps of one trace — one client or k — over one transport
    and judges every run against its golden."""

    def __init__(
        self, trace: ChaosTrace | None = None, *, seed: int = 0, transport: str = "inprocess"
    ):
        self.trace = trace if trace is not None else probe_dml_trace()
        self.seed = seed
        self.transport = transport
        #: stride -> :meth:`recovery_requests`' answer
        self._recovery_requests: dict[int, list[tuple[tuple, tuple[int, ...]]]] = {}

    @cached_property
    def golden(self) -> TraceRecord:
        record = run_trace(self.trace, transport=self.transport)
        if not record.completed:
            raise RuntimeError(f"golden run failed: {record.error}")
        if record.fired:
            raise RuntimeError(f"golden run saw faults fire: {record.fired}")
        return record

    # -- running ------------------------------------------------------------

    def run_schedule(
        self,
        schedule: Schedule,
        *,
        victim: int | None = None,
        tracer=None,
        label: str = "",
    ) -> ChaosRunResult:
        """Run one faulted schedule (``victim``: a targeted crash on that
        client's COMMIT); pass a ``repro.obs.Tracer`` to capture the run as
        a span trace (see :func:`repro.chaos.trace.run_trace`).  ``label``
        names the run's ``by_kind`` cell (default: its kind when it places
        one fault, else ``multi_fault``)."""
        record = run_trace(
            self.trace, schedule, victim=victim, tracer=tracer, transport=self.transport
        )
        clients = record.clients
        return ChaosRunResult(
            schedule=tuple(schedule),
            violations=check_run(self.golden, record),
            fired=record.fired,
            recoveries=record.recoveries,
            deadlock_retries=sum(c.deadlock_retries for c in clients),
            virtual_session_seconds=sum(c.virtual_session_seconds for c in clients),
            sql_state_seconds=sum(c.sql_state_seconds for c in clients),
            victim=victim,
            label=label,
        )

    def placements(
        self, kind: FaultKind, *, stride: int = 1, second_order: bool = False
    ) -> list[Schedule]:
        """The single-fault schedules that place ``kind`` at every crash
        point (``stride`` thins the grid for quick smoke runs).

        A wire or storage fault fires at a request index.  CRASH_MID_BATCH
        kills the server inside each batch request the golden run sent,
        after 0..N of its N sub-statements (N = every sub-statement ran but
        the group force has not, so all its deferred commits die).
        CRASH_MID_DRAIN and CRASH_MID_RESTORE begin a planned restart or a
        ``restore_to`` (to now, so the golden comparison stays valid) at
        each index and kill the process inside it: arg 0 before the
        checkpoint or the storage rewrite, arg 1 after it, before the fresh
        engine boots.  Every placement must degrade into ordinary
        crash recovery with exactly-once outcomes.

        ``second_order`` places ``kind`` inside recovery instead: one
        two-fault schedule per request that a rebuilding single wire fault's
        recoveries sent (:meth:`recovery_requests`), the first fault kept.
        ``stride`` thins both grids: the first faults' indexes, then every
        ``stride``-th of the schedules they yield.
        """
        if second_order:
            return [
                (first, (index, kind))
                for first, requests in self.recovery_requests(stride=stride)
                for index in requests
            ][::stride]
        indexes = range(0, self.golden.requests_seen, stride)
        if kind in BATCH_FAULTS:
            return [
                ((index, kind, executed),)
                for index, size in self.golden.batch_requests
                for executed in range(0, size + 1, stride)
            ]
        if kind in DRAIN_FAULTS + RESTORE_FAULTS:
            return [((index, kind, arg),) for index in indexes for arg in (0, 1)]
        return [((index, kind),) for index in indexes]

    def recovery_requests(self, *, stride: int = 1) -> list[tuple[tuple, tuple[int, ...]]]:
        """``(fault, request indexes)`` for every wire fault at every
        ``stride``-th golden index whose run rebuilt the session: the
        indexes of the requests the run sent inside its ``recovery`` spans,
        in order.  Each first fault is run once, traced; the answer is kept
        per stride."""
        found = self._recovery_requests.get(stride)
        if found is None:
            found = self._recovery_requests[stride] = [
                (entry, requests)
                for kind in WIRE_FAULTS
                for (entry,) in self.placements(kind, stride=stride)
                if (requests := self._requests_in_recovery(entry))
            ]
        return found

    def _requests_in_recovery(self, entry: tuple) -> tuple[int, ...]:
        tracer = Tracer(seed=self.seed)
        record = run_trace(self.trace, (entry,), tracer=tracer, transport=self.transport)
        if not record.recoveries:
            return ()
        spans = [r for r in tracer.records if r["kind"] == "span"]
        windows = [(s["start"], s["end"]) for s in spans if s["name"] == "recovery"]
        # a request takes the next index when the fault injector inspects
        # it, which every request the server does not refuse as down does,
        # first thing in its server.dispatch span
        inspected = sorted(
            (s for s in spans if s["name"] == "server.dispatch" and s["error"] != _REFUSED),
            key=lambda s: s["start"],
        )
        if len(inspected) != record.requests_seen:
            raise RuntimeError(
                f"{len(inspected)} dispatch spans for {record.requests_seen} requests"
            )
        return tuple(
            index
            for index, span in enumerate(inspected)
            if any(start <= span["start"] <= end for start, end in windows)
        )

    def sweep(
        self,
        kinds: tuple[FaultKind, ...] = SWEPT_FAULTS,
        *,
        stride: int = 1,
        random_runs: int = 0,
        second_order: bool = False,
    ) -> ChaosReport:
        """Every placement of every kind in ``kinds`` (second-order ones
        with ``second_order``), then ``random_runs`` seeded multi-fault
        schedules, each judged by the oracle."""
        labelled = [
            (f"{kind.value} in recovery" if second_order else "", schedule)
            for kind in kinds
            for schedule in self.placements(kind, stride=stride, second_order=second_order)
        ]
        labelled += [("multi_fault", s) for s in self.random_schedules(random_runs)]
        report = ChaosReport(
            golden_requests=self.golden.requests_seen,
            seed=self.seed,
            transport=self.transport,
        )
        started = time.perf_counter()
        report.results = [
            self.run_schedule(schedule, label=label) for label, schedule in labelled
        ]
        report.elapsed_seconds = time.perf_counter() - started
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


def run_sweep(
    *,
    seed: int = 0,
    stride: int = 1,
    random_runs: int = 24,
    transports: tuple[str, ...] = ("inprocess",),
    second_order: bool = False,
) -> list[ChaosReport]:
    """The chaos sweep, one :class:`ChaosReport` per transport: every
    placement of every fault kind (thinned by ``stride``) plus ``random_runs``
    multi-fault schedules derived from ``seed`` alone, so a failure
    reproduces from the document's recorded seed.  ``second_order`` sweeps
    ``RECOVERY_FAULTS`` inside every rebuild instead of every kind alone."""
    kinds = RECOVERY_FAULTS if second_order else SWEPT_FAULTS
    return [
        ChaosExplorer(seed=seed, transport=transport).sweep(
            kinds, stride=stride, random_runs=random_runs, second_order=second_order
        )
        for transport in transports
    ]


def sweep_multi(
    clients: tuple[int, ...] = (1, 4, 16),
    *,
    positions: tuple[float, ...] = (0.25, 0.5, 0.75),
) -> dict[int, dict]:
    """The k-client crash sweep: for each client count, positional crashes
    at fractions of the golden request count and one targeted crash on
    client 0's commit with everyone mid-transaction.

    Returns ``{k: {"runs", "recovered", "recovered_fraction", "crashes",
    "recoveries", "deadlock_retries", "violations"}}``; each violation
    names its run's schedule.
    """
    summary: dict[int, dict] = {}
    for k in clients:
        explorer = ChaosExplorer(multi_client_trace(k))
        requests = explorer.golden.requests_seen
        results = [
            explorer.run_schedule(
                ((max(1, int(requests * fraction)), FaultKind.CRASH_BEFORE_EXECUTE),)
            )
            for fraction in positions
        ]
        results.append(explorer.run_schedule((), victim=0))
        recovered = sum(1 for r in results if r.ok)
        summary[k] = {
            "runs": len(results),
            "recovered": recovered,
            "recovered_fraction": recovered / len(results),
            "crashes": sum(len(r.fired) for r in results),
            "recoveries": sum(r.recoveries for r in results),
            "deadlock_retries": sum(r.deadlock_retries for r in results),
            "violations": [f"{r.describe()} {v}" for r in results for v in r.violations],
        }
    return summary
