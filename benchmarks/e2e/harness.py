"""Deployment under test, the slice loop with its speed index, and the
end-to-end metrics.

One process measures one workload.  The deployment is the one a user of the
package would build: ``repro.make_system`` over file storage (one write +
fsync per log append) with a TCP listener, compiled executor, plan cache on.
One client thread drives it in a closed loop.

The measured work is cut into *slices*.  A slice is one short application
session — connect, a fixed number of statements, close — so every slice
starts from the same server state and the run stays stationary however long
it lasts.  Slices run in triples (Phoenix, Phoenix, plain; order flipped
every triple) and the reference kernels run between slices.  Before any
percentile is taken a slice's timings are put *at reference speed*
(``at_reference``): the time the program spent inside device writes is
multiplied by ``DEVICE_NOMINAL_MS`` / the median device-probe time around
the slice, the rest by ``REF_NOMINAL_MS`` / the median kernel time.

A latency percentile is taken *inside each triple* and the median over the
triples is reported (``end_to_end``), as the Phoenix/plain ratio is.  The
speed index follows the box from second to second; what a neighbour does to
the box for a fraction of a second it cannot follow, and over a whole run
those moments alone make up the slowest twentieth of the samples.  The
percentile of one triple sees them only in the triples they hit, and the
median over the triples leaves those out.

A run does a fixed amount of work: ``work_for`` turns ``--seconds`` into a
number of triples with the workload's committed rate, so two runs of one
seed execute the same statements on any box.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass

import repro
from repro.engine.storage import FileStableStorage

from refkernel import DEVICE_NOMINAL_MS, REF_NOMINAL_MS, device_probe, kernel

PHOENIX, PLAIN = "phoenix", "plain"
#: the reference kernels are read at the first statement or slice boundary
#: after this many seconds: the box's speed changes within a second, and a
#: pass of tpch_power is a slice of one second
READ_INTERVAL = 0.2
#: a slice's speed is the median of the readings taken during it, this many
#: before it and as many after it: one reading is itself noisy
SPEED_WINDOW = 5
#: speed readings before a set-up and after it (more are taken between
#: load and warm-up and during the warm-up)
SETUP_READINGS = 3
WORK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".work")


def work_for(workload_class, seconds: float) -> tuple[int, int]:
    """``--seconds`` selects the run's work and nothing else: (triples of
    slices, set-ups).  The rate is the workload's committed
    ``TRIPLES_PER_SECOND`` on the reference box; a run never sets up more
    often than it measures triples."""
    triples = max(1, round(seconds * workload_class.TRIPLES_PER_SECOND))
    return triples, min(workload_class.SETUPS, triples)


class SpeedLog:
    """Readings of the two reference kernels, in time order."""

    def __init__(self) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        handle, self._probe_path = tempfile.mkstemp(dir=WORK_DIR, suffix=".probe")
        os.close(handle)
        #: (kernel ms, device-probe ms)
        self.readings: list[tuple[float, float]] = []
        self._last_read = 0.0

    def read(self) -> None:
        self.readings.append((kernel(), device_probe(self._probe_path)))
        self._last_read = time.perf_counter()

    def read_if_due(self) -> float:
        """Take a reading if ``READ_INTERVAL`` has passed since the last;
        returns the seconds it took."""
        start = time.perf_counter()
        if start - self._last_read < READ_INTERVAL:
            return 0.0
        self.read()
        return self._last_read - start

    def around(self, first: int, last: int) -> tuple[float, float]:
        """Median (kernel ms, probe ms) of readings ``first`` … ``last``."""
        window = self.readings[max(0, first) : last + 1]
        return (
            statistics.median(cpu for cpu, _ in window),
            statistics.median(dev for _, dev in window),
        )

    def close(self) -> None:
        os.unlink(self._probe_path)


def at_reference(seconds: float, device: float, speed: tuple[float, float]) -> float:
    """``seconds``, of which ``device`` were spent inside device writes, at
    reference speed."""
    kernel_ms, probe_ms = speed
    return (seconds - device) * REF_NOMINAL_MS / kernel_ms + device * DEVICE_NOMINAL_MS / probe_ms


@dataclass
class Device:
    """What reached the device, and how long the program spent there."""

    log_appends: int = 0
    log_bytes: int = 0
    table_file_bytes: int = 0
    #: seconds inside ``append_log`` and ``write_table_file``
    seconds: float = 0.0


class CountingFileStorage(FileStableStorage):
    """File storage that adds up what reaches the device.  The meter belongs
    to the deployment, so it outlives the engines that are replaced."""

    def __init__(self, root: str, device: Device):
        super().__init__(root)
        self.device = device

    def append_log(self, payload: bytes) -> int:
        device = self.device
        device.log_appends += 1
        device.log_bytes += len(payload)
        start = time.perf_counter()
        try:
            return super().append_log(payload)
        finally:
            device.seconds += time.perf_counter() - start

    def write_table_file(self, name, data) -> None:
        device = self.device
        start = time.perf_counter()
        try:
            super().write_table_file(name, data)
        finally:
            device.seconds += time.perf_counter() - start
        device.table_file_bytes += os.path.getsize(self._table_path(name))


class Deployment:
    """One system under test plus the operator stand-ins the workloads need
    (loader, checkpointer, the watchdog that restarts a crashed engine)."""

    def __init__(self) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(dir=WORK_DIR)
        self.device = Device()
        self._boot()
        #: seconds each engine restart took
        self.restarts: list[float] = []
        self.records_replayed = 0
        self.checkpoints: list[float] = []

    def _boot(self) -> None:
        self.storage = CountingFileStorage(self.root, self.device)
        self.system = repro.make_system(self.storage, listen="127.0.0.1:0")
        # Phoenix waits out an outage by sleeping between pings; the sleep
        # is where the watchdog brings the engine back (as chaos/trace.py)
        self.system.phoenix.config.sleep = lambda _seconds: self.restart_if_down()

    def save_template(self) -> None:
        """Keep a copy of the files as they are now (call after a checkpoint)."""
        shutil.copytree(self.root, self.root + ".template")

    def reset_to_template(self) -> None:
        """Bring the deployment back to the saved files: a new engine boots
        from them, so log, archive and catalogue are what they were then."""
        self.system.close()
        shutil.rmtree(self.root)
        shutil.copytree(self.root + ".template", self.root)
        self._boot()

    def connect(self, side: str):
        return repro.connect(self.system, phoenix=side == PHOENIX)

    def restart_if_down(self) -> None:
        if self.system.server.up:
            return
        start = time.perf_counter()
        report = self.system.endpoint.restart_server()
        self.restarts.append(time.perf_counter() - start)
        self.records_replayed += report.records_redone

    @property
    def restart_seconds(self) -> float:
        return sum(self.restarts)

    def checkpoint(self) -> None:
        start = time.perf_counter()
        self.system.server.checkpoint()
        self.checkpoints.append(time.perf_counter() - start)

    def server_execute(self, statements: list[str]) -> list[tuple]:
        """Run statements on a direct server session — off the wire, so
        loads and oracle reads move none of the measured counters' wire
        part.  Returns the last statement's rows."""
        server = self.system.server
        session = server.connect(user="bench")
        try:
            rows: list[tuple] = []
            for sql in statements:
                result = server.execute(session, sql)
                rows = list(result.result_set.rows) if result.result_set else []
            return rows
        finally:
            server.disconnect(session)

    def counters(self) -> dict[str, float]:
        registry = self.system.registry
        return {
            "round_trips": registry.network.round_trips,
            "net_bytes": registry.network.bytes_sent + registry.network.bytes_received,
            "wal_bytes": self.device.log_bytes,
            "wal_forces": self.device.log_appends,
            "device_seconds": self.device.seconds,
            "wal_records": registry.wal.records_written,
            "wal_force_calls": registry.wal.forces,
            "lock_acquires": registry.locks.acquires,
            "lock_waits": registry.locks.waits,
            "parse_hits": registry.engine.parse_hits,
            "parse_misses": registry.engine.parse_misses,
            "plan_hits": registry.engine.plan_hits,
            "plan_misses": registry.engine.plan_misses,
            "rows_scanned": registry.executor.rows_scanned,
            "rows_returned": registry.executor.rows_returned,
        }

    def close(self) -> None:
        self.system.close()
        shutil.rmtree(self.root, ignore_errors=True)
        shutil.rmtree(self.root + ".template", ignore_errors=True)


@dataclass
class Sample:
    op: str  # "select" | "dml"
    seconds: float
    #: part of ``seconds`` spent restarting the engine (crash workload)
    restart: float = 0.0
    #: part of ``seconds`` spent inside device writes
    device: float = 0.0
    ok: bool = True


class SliceLog:
    """What one slice did: a latency sample per application call."""

    def __init__(self, dep: Deployment, speed: SpeedLog, recorder=None, tamper: bool = False):
        self.dep = dep
        self._speed = speed
        self.samples: list[Sample] = []
        self.statements = 0
        self.errors: list[str] = []
        #: time and counters of operator work done inside the session that
        #: is no part of it (``untimed``)
        self.untimed_seconds = 0.0
        self.untimed_counters = dict.fromkeys(dep.counters(), 0.0)
        #: the span recorder of a traced run: told when an application call
        #: is being timed, so it can tell statements from session set-up
        self._recorder = recorder
        self._tamper = tamper

    def run(self, op: str, call, statements: int = 1):
        """Time ``call()`` as one application call of ``statements``
        statements; a database error fails the call instead of the run."""
        self.untimed_seconds += self._speed.read_if_due()
        restart_before = self.dep.restart_seconds
        device = self.dep.device
        device_before = device.seconds
        if self._recorder:
            self._recorder.in_statement = True
        start = time.perf_counter()
        try:
            result, ok = call(), True
        except repro.Error as exc:
            result, ok = None, False
            self.errors.append(f"{op}: {type(exc).__name__}: {exc}")
        elapsed = time.perf_counter() - start
        if self._recorder:
            self._recorder.in_statement = False
        self.samples.append(
            Sample(
                op,
                elapsed,
                self.dep.restart_seconds - restart_before,
                device.seconds - device_before,
                ok,
            )
        )
        self.statements += statements
        if self._tamper and ok and op == "select" and isinstance(result, list):
            self._tamper = False
            result = result[:-1] if result else [("tampered",)]
        return result

    def untimed(self, work) -> None:
        """Run operator work in the middle of a session (undoing a refresh)
        and take its time and counters out of the slice."""
        recording = self._recorder and self._recorder.enabled
        if recording:
            self._recorder.enabled = False
        before = self.dep.counters()
        start = time.perf_counter()
        work()
        self.untimed_seconds += time.perf_counter() - start
        for name, value in self.dep.counters().items():
            self.untimed_counters[name] += value - before[name]
        if recording:
            self._recorder.enabled = True

    def expect(self, condition: bool, message: str) -> None:
        """Oracle hook: a wrong answer fails the call just timed."""
        if not condition:
            self.samples[-1].ok = False
            self.errors.append(message)

    def finish(self) -> None:
        """A failed call stays in the percentiles, charged the slowest
        sample of its slice."""
        if self.samples:
            slowest = max(self.samples, key=lambda s: s.seconds)
            for sample in self.samples:
                if not sample.ok:
                    sample.seconds, sample.device = slowest.seconds, slowest.device

    @property
    def failed(self) -> int:
        return sum(not s.ok for s in self.samples)


@dataclass
class SliceRecord:
    side: str
    index: int
    wall: float
    log: SliceLog
    delta: dict[str, float]
    #: the box's speed around the slice: median (kernel ms, probe ms)
    speed: tuple[float, float] = (REF_NOMINAL_MS, DEVICE_NOMINAL_MS)
    traced: bool = False

    def sample_seconds(self, sample: Sample) -> float:
        """An application call's time at reference speed."""
        return at_reference(sample.seconds, sample.device, self.speed)

    @property
    def session_seconds(self) -> float:
        """The whole session's time, connect and close included, at
        reference speed."""
        return at_reference(self.wall, self.delta["device_seconds"], self.speed)


@dataclass
class SetupTime:
    raw_seconds: float
    scaled_seconds: float


def fetch(cursor, sql: str, params: list | None = None) -> list[tuple]:
    """A row-returning statement as the application sees it."""
    cursor.execute(sql, params)
    return cursor.fetchall()


def execute(cursor, sql: str, params: list | None = None) -> int:
    cursor.execute(sql, params)
    return cursor.rowcount


def slice_rng(seed: int, index: int) -> random.Random:
    """The statement stream of slice ``index`` depends on the seed and the
    index only — not on which side runs it or how fast the box is."""
    return random.Random(seed * 1_000_003 + index)


def set_up(make_workload, seed: int, speed: SpeedLog):
    """Build, load, checkpoint and warm one deployment.  Returns (workload,
    deployment, SetupTime)."""
    first = len(speed.readings)
    for _ in range(SETUP_READINGS):
        speed.read()
    start = time.perf_counter()
    workload = make_workload(seed)
    dep = Deployment()
    workload.load(dep)
    dep.checkpoint()
    elapsed = time.perf_counter() - start
    speed.read()
    # warm-up: one slice per side fills parse and plan caches, spawns the
    # dispatch worker and pages the tables in
    for warm, side in enumerate((PHOENIX, PLAIN)):
        log = SliceLog(dep, speed)
        start = time.perf_counter()
        workload.run_slice(dep, side, slice_rng(seed, -1 - warm), log)
        workload.after_slice(dep, side, log)
        elapsed += time.perf_counter() - start - log.untimed_seconds
        if log.failed:
            raise SystemExit(f"warm-up failed: {log.errors[:3]}")
    for _ in range(SETUP_READINGS):
        speed.read()
    scaled = at_reference(
        elapsed, dep.device.seconds, speed.around(first, len(speed.readings) - 1)
    )
    return workload, dep, SetupTime(elapsed, scaled)


def measure(
    workload,
    dep: Deployment,
    seed: int,
    triples: int,
    speed: SpeedLog,
    *,
    first_index: int = 0,
    tamper: bool = False,
    recorder=None,
) -> list[SliceRecord]:
    """Run ``triples`` triples of slices.  ``recorder`` (a traced run)
    records spans while a slice runs."""
    records: list[SliceRecord] = []
    #: readings[first:last] were taken during the slice (its end included)
    during: list[tuple[int, int]] = []
    speed.read()
    index = first_index
    for done in range(1, triples + 1):
        order = (PHOENIX, PHOENIX, PLAIN) if done % 2 else (PLAIN, PHOENIX, PHOENIX)
        for side in order:
            log = SliceLog(dep, speed, recorder, tamper=tamper and side == PHOENIX)
            tamper = tamper and side != PHOENIX
            counters_before = dep.counters()
            first = len(speed.readings)
            if recorder:
                recorder.slice, recorder.enabled = index, True
            start = time.perf_counter()
            workload.run_slice(dep, side, slice_rng(seed, index), log)
            wall = time.perf_counter() - start - log.untimed_seconds
            if recorder:
                recorder.enabled = False
            counters_after = dep.counters()
            speed.read_if_due()
            during.append((first, len(speed.readings)))
            workload.after_slice(dep, side, log)
            log.finish()
            delta = {
                k: counters_after[k] - counters_before[k] - log.untimed_counters[k]
                for k in counters_after
            }
            records.append(SliceRecord(side, index, wall, log, delta))
            index += 1
        workload.maintain(dep, done)
    speed.read()
    for record, (first, last) in zip(records, during):
        record.speed = speed.around(first - SPEED_WINDOW, last - 1 + SPEED_WINDOW)
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def statement_seconds(record: SliceRecord) -> float:
    """Statement time per statement as the clock read it, engine restarts
    excluded (they are the same on both sides and not part of session
    recovery or recompute)."""
    return sum(s.seconds - s.restart for s in record.log.samples) / record.log.statements


def end_to_end(
    records: list[SliceRecord], setups: list[SetupTime], rss_mb: float, scaled: bool = True
) -> dict:
    """The eleven end-to-end metrics as ``{name: (value, unit, samples)}``;
    ``scaled=False`` gives the timings as the clock read them."""
    phoenix = [r for r in records if r.side == PHOENIX]
    triples = [records[i : i + 3] for i in range(0, len(records), 3)]

    def latencies(triple: list[SliceRecord], op: str) -> list[float]:
        return [
            (r.sample_seconds(s) if scaled else s.seconds) * 1e3
            for r in triple
            if r.side == PHOENIX
            for s in r.log.samples
            if s.op == op
        ]

    def latency(op: str, q: float) -> tuple[float, str, int]:
        """Median over the triples of the percentile inside a triple."""
        inside = [latencies(triple, op) for triple in triples]
        return (
            statistics.median(percentile(values, q) for values in inside),
            "ms",
            sum(map(len, inside)),
        )

    statements = sum(r.log.statements for r in phoenix)
    per_statement = [
        (r.session_seconds if scaled else r.wall) / r.log.statements for r in phoenix
    ]
    # Phoenix ÷ plain inside each triple, on the clock's own readings: the
    # slices of a triple are neighbours in time, so the box's speed cancels,
    # and scaling each by its own index only added the indexes' noise
    ratios = [
        statistics.mean(statement_seconds(r) for r in triple if r.side == PHOENIX)
        / next(statement_seconds(r) for r in triple if r.side == PLAIN)
        for triple in triples
    ]

    def per_op(counter: str) -> float:
        return sum(r.delta[counter] for r in phoenix) / statements

    setup_seconds = [s.scaled_seconds if scaled else s.raw_seconds for s in setups]
    return {
        "setup_s": (statistics.median(setup_seconds), "s", len(setup_seconds)),
        "throughput_ops_s": (1.0 / statistics.median(per_statement), "1/s", len(phoenix)),
        "select_p50_ms": latency("select", 0.50),
        "select_p95_ms": latency("select", 0.95),
        "dml_p50_ms": latency("dml", 0.50),
        "dml_p95_ms": latency("dml", 0.95),
        "phoenix_vs_plain_ratio": (statistics.median(ratios), "ratio", len(ratios)),
        "round_trips_per_op": (per_op("round_trips"), "count", statements),
        "wal_bytes_per_op": (per_op("wal_bytes"), "bytes", statements),
        "wal_forces_per_op": (per_op("wal_forces"), "count", statements),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
