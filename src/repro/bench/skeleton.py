"""The one experiment skeleton: what every experiment declares, and the
measurement scaffolding every runner shares.

**Declaring.**  An experiment is one :class:`Experiment` entry — CLI name,
payload key, runner, result type, title, tables — in
``repro.bench.reporting.EXPERIMENTS``.  Its text is rendered by
:meth:`Experiment.render` from the declared :class:`Table` columns; its
JSON document is *derived* from the result by :func:`payload` (dataclass
fields plus the properties marked :class:`derived`), so a field added to a
result type shows up in ``--json`` without anyone listing it again.

**Measuring.**  The disciplines the runners in :mod:`repro.bench.harness`
rely on are written once here: :func:`interleaved_best_of` (rotated-order
best-of-N timing), :func:`fold_fingerprint` / :func:`require_identical`
(the fingerprint guard), :func:`percentile`, :func:`load` / :func:`loaded_system`
and :func:`server_rows` / :func:`durable_fingerprint` (set-up and read-back
that bypass the drivers under test), :func:`run_clients` (barrier-started
threaded clients) and :func:`operator_restart` (the operator, compressed
into the recovery sleep).
"""

from __future__ import annotations

import dataclasses
import re
import string
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

import repro

__all__ = [
    "ClientRun",
    "Experiment",
    "Table",
    "derived",
    "durable_fingerprint",
    "fold_fingerprint",
    "interleaved_best_of",
    "load",
    "loaded_system",
    "operator_restart",
    "payload",
    "percentile",
    "require_identical",
    "run_clients",
    "server_rows",
    "symmetric_rounds",
]


# ============================================================ declaring


class derived(property):
    """A read-only property that is part of the experiment's JSON document
    (a plain ``@property`` is for rendering only and stays out of it)."""


def payload(value: Any) -> Any:
    """The JSON-ready form of a result: a dataclass becomes a dict of its
    fields followed by its :class:`derived` properties, recursively."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names = [f.name for f in dataclasses.fields(value)]
        for klass in reversed(type(value).__mro__):
            names += [n for n, attr in vars(klass).items() if isinstance(attr, derived)]
        return {name: payload(getattr(value, name)) for name in names}
    if isinstance(value, dict):
        return {str(key): payload(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [payload(item) for item in value]
    return value


_WIDTH = re.compile(r"[<>^]?\d+")


@dataclass
class Table:
    """One table of an experiment's text: optional caption lines, a header
    line, one line per row, optional footer lines.  A table whose ``rows``
    come back empty prints nothing at all.

    ``row`` is a ``str.format`` template over one row ``r`` —
    ``"{r.name:14} {r.seconds:>9.4f} {r.metrics[plan_hits]:>6}"`` — and
    ``headers`` names its fields in order; the header line is laid out from
    the template's own widths, so a column is described in one place.
    """

    headers: Sequence[str]
    row: str
    #: the rows this table lists, given the result (default: the result is
    #: the row list)
    rows: Callable[[Any], Iterable] = lambda result: result
    caption: Callable[[Any], list[str]] | None = None
    footer: Callable[[Any], list[str]] | None = None

    def lines(self, result: Any) -> list[str]:
        rows = list(self.rows(result))
        if not rows:
            return []
        out = list(self.caption(result)) if self.caption else []
        header, headers = "", iter(self.headers)
        for literal, name, spec, _ in string.Formatter().parse(self.row):
            header += re.sub(r"\S", " ", literal)  # a unit suffix becomes a space
            if name is not None:
                header += format(next(headers), _WIDTH.match(spec).group())
        out.append(header)
        out += [self.row.format(r=row) for row in rows]
        if self.footer:
            out += self.footer(result)
        return out


@dataclass
class Experiment:
    """One registered experiment (see the module docstring)."""

    #: the CLI artifact name: ``python -m repro.bench.reporting <name>``
    name: str
    #: the experiment's key in the ``--json`` document
    key: str
    #: runs the measurement; keyword-only parameters with defaults
    runner: Callable[..., Any]
    #: what ``runner`` returns — or the type of each row when it returns a
    #: list; the JSON keys are this type's fields + derived properties
    result_type: type
    title: str
    tables: Sequence[Table]
    #: runner keyword → the CLI option (``argparse`` dest) that feeds it
    options: Mapping[str, str] = field(default_factory=dict)

    def render(self, result: Any) -> str:
        lines = [self.title]
        for table in self.tables:
            section = table.lines(result)
            if section and len(lines) > 1:  # a blank line between tables
                lines.append("")
            lines += section
        return "\n".join(lines)


# ============================================================ measuring


def fold_fingerprint(fingerprint: int, name: str, rows: list) -> int:
    """Order-sensitive hash over result sets: fold one more in."""
    return hash((fingerprint, name, str(rows)))


def require_identical(what: str, fingerprints: Mapping[Any, Any]) -> None:
    """The fingerprint guard: the labelled fingerprints must all be equal,
    or the comparison they belong to is meaningless — raise, so CI's
    bench-smoke fails instead of reporting a speed-up of a wrong answer."""
    if len(set(fingerprints.values())) > 1:
        raise RuntimeError(
            f"{what}: durable state diverged: "
            + ", ".join(f"{label}={value}" for label, value in fingerprints.items())
        )


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[index]


def symmetric_rounds(trials: int, sides: int) -> int:
    """``trials`` rounded up to a multiple of ``sides`` (at least one full
    rotation), so each side occupies every position equally often."""
    return max(sides, trials + (-trials % sides))


def interleaved_best_of(
    sides: Iterable[Any],
    trial: Callable[[Any], float],
    rounds: int,
    *,
    warmup: bool = False,
) -> dict[Any, float]:
    """Time ``trial(side)`` for every side, ``rounds`` times over, and
    return each side's minimum.

    The delta an ablation looks for is often a few percent — smaller than
    the slow drift a process accumulates between two back-to-back
    measurement blocks (allocator warm-up, CPU frequency).  So the sides
    are measured *adjacently*, the order rotates every round (AB BA AB BA
    for two sides: with ``rounds`` a multiple of the side count each side
    occupies positionally symmetric slots and monotone drift cancels
    instead of favouring whichever side runs last), and the per-side
    minimum is what isolates the systematic delta.  ``warmup`` runs every
    side once, untimed, first: it absorbs the steep early drift and makes
    caches hot.
    """
    sides = tuple(sides)
    if warmup:
        for side in sides:
            trial(side)
    best = {side: float("inf") for side in sides}
    for round_index in range(rounds):
        shift = round_index % len(sides)
        for side in sides[shift:] + sides[:shift]:
            best[side] = min(best[side], trial(side))
    return best


def load(system: "repro.System", *statements: str) -> None:
    """Run set-up ``statements`` on a server-side *loader* session —
    bypassing both driver stacks, so set-up costs no counted round trip."""
    loader = system.server.connect(user="loader")
    for sql in statements:
        system.server.execute(loader, sql)
    system.server.disconnect(loader)


def loaded_system(*statements: str, latency: float | None = None) -> "repro.System":
    """A fresh system whose tables :func:`load` created and filled.
    ``latency`` is the simulated transit every later wire request pays."""
    system = repro.make_system()
    if latency is not None:
        system.endpoint.latency = latency
    load(system, *statements)
    return system


def server_rows(system: "repro.System", sql: str) -> list:
    """Read durable state back server-side through a short *verifier*
    session — what a fingerprint is folded from, independent of the driver
    stack whose behaviour is being judged."""
    verifier = system.server.connect(user="verifier")
    try:
        return system.server.execute(verifier, sql).result_set.rows
    finally:
        system.server.disconnect(verifier)


def durable_fingerprint(system: "repro.System", **queries: str) -> int:
    """One fingerprint over the server-side answers to the named queries."""
    fingerprint = 0
    for name, sql in queries.items():
        fingerprint = fold_fingerprint(fingerprint, name, server_rows(system, sql))
    return fingerprint


@dataclass
class ClientRun:
    """What :func:`run_clients` observed."""

    #: wall time from starting the threads to joining the last one
    seconds: float
    #: client-observed latency of every completed operation, all clients
    latencies: list[float]
    #: one ``"ExcType: message"`` per client that died (or failed to close)
    errors: list[str]
    #: session recoveries the Phoenix layer performed, all clients
    recoveries: int


def run_clients(
    system: "repro.System",
    clients: int,
    work: Callable[[Any, int], Iterator[None]],
    *,
    user: str = "bench",
    operator: Callable[[], None] | None = None,
) -> ClientRun:
    """Run ``work(connection, index)`` on ``clients`` Phoenix connections,
    one thread each.

    ``work`` is a generator: what it does before its first ``yield`` is
    untimed set-up (open a cursor, SET an option); every later ``yield``
    marks the end of one operation, whose latency is recorded.  All clients
    leave set-up together through a barrier, and from that moment
    ``operator`` — the restarts or restores an experiment injects under
    load — runs on the calling thread.  An exception ends that client only
    and is reported in ``errors``; the latencies it had collected stay.
    Connections are closed afterwards (the server is brought back first if
    the operator's last act was a crash no traffic followed).
    """
    connections = [
        system.phoenix.connect(system.DSN, user=f"{user}{i}") for i in range(clients)
    ]
    barrier = threading.Barrier(clients + 1)
    latencies: list[float] = []
    errors: list[str] = []
    collect = threading.Lock()

    def client(connection: Any, index: int) -> None:
        mine: list[float] = []
        try:
            steps = work(connection, index)
            next(steps)
            barrier.wait()
            started = time.perf_counter()
            for _ in steps:
                now = time.perf_counter()
                mine.append(now - started)
                started = now
        except Exception as exc:
            barrier.abort()  # a client that died in set-up must not strand the rest
            with collect:
                errors.append(f"{type(exc).__name__}: {exc}")
        with collect:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(connection, i), name=f"{user}-{i}")
        for i, connection in enumerate(connections)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # reported by the client that broke it
    if operator is not None:
        operator()
    for thread in threads:
        thread.join()
    seconds = time.perf_counter() - started
    recoveries = sum(c.stats.recoveries for c in connections)
    if not system.server.up:
        system.endpoint.restart_server()
    for connection in connections:
        try:
            connection.close()
        except Exception as exc:
            errors.append(f"close: {type(exc).__name__}: {exc}")
    return ClientRun(seconds, latencies, errors, recoveries)


def operator_restart(
    system: "repro.System", *, wait: bool = False
) -> Callable[[float], None]:
    """A ``PhoenixConfig.sleep`` hook standing in for the operator: Phoenix
    recovery "waits" by restarting the crashed server.  With ``wait`` the
    client genuinely sleeps out its backoff interval first (that *is* the
    crash downtime an experiment measures); without, downtime is compressed
    to zero for a deterministic bench.  Locked, so concurrent recoveries do
    not double-restart and wipe the sessions the first restart's
    recoveries just rebuilt."""
    restarting = threading.Lock()

    def sleep(seconds: float) -> None:
        if wait:
            time.sleep(seconds)
        with restarting:
            if not system.server.up:
                system.endpoint.restart_server()

    return sleep
