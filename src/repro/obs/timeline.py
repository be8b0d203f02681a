"""Turn a raw trace into a story: the span tree and the recovery timeline.

:func:`render_tree` pretty-prints any record list as an indented causal
tree (span nesting from parent links, events interleaved at their
timestamps).  :class:`RecoveryTimeline` is the paper-facing view: it finds
every ``recovery`` span in a trace and rebuilds the named phases the
protocol defines — detection probe, the wait between connects, phase 1
(virtual session: each connect attempt), phase 2 (SQL state) — with
per-phase durations and the ping (connect attempt) count, which is
exactly the decomposition behind Figure 2's stacked bars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Phase", "RecoveryView", "RecoveryTimeline", "render_tree"]

#: child spans of a ``recovery`` span that count as named phases, in
#: protocol order, with their display labels
PHASE_SPANS = (
    ("recovery.detect", "detect (spurious-timeout probe)"),
    ("recovery.await_server", "await server (ping loop)"),
    ("recovery.phase1.virtual_session", "phase 1: virtual session"),
    ("recovery.phase2.sql_state", "phase 2: SQL state"),
)


@dataclass
class Phase:
    name: str
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RecoveryView:
    """One reconstructed recovery: the ``recovery`` span plus its phases."""

    corr: str | None
    start: float
    end: float
    outcome: str
    pings: int
    phases: list[Phase] = field(default_factory=list)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def phase_seconds(self, name: str) -> float:
        return sum(p.duration for p in self.phases if p.name == name)


class RecoveryTimeline:
    """Every recovery a trace contains, in time order."""

    def __init__(self, recoveries: list[RecoveryView]):
        self.recoveries = recoveries

    @classmethod
    def from_records(cls, records: list[dict], corr: str | None = None) -> "RecoveryTimeline":
        spans = [r for r in records if r.get("kind") == "span"]
        events = [r for r in records if r.get("kind") == "event"]
        tops = [s for s in spans if s["name"] == "recovery"]
        if corr is not None:
            tops = [s for s in tops if s["corr"] == corr]
        by_parent: dict[int | None, list[dict]] = {}
        for span in spans:
            by_parent.setdefault(span["parent"], []).append(span)
        views: list[RecoveryView] = []
        for top in sorted(tops, key=lambda s: s["start"]):
            phases: list[Phase] = []
            for child in sorted(by_parent.get(top["id"], []), key=lambda s: s["start"]):
                for name, label in PHASE_SPANS:
                    if child["name"] == name:
                        phases.append(Phase(name, label, child["start"], child["end"]))
            # ping events land inside the recovery's time window and share
            # its correlation id — count them without threading parent ids
            # through the whole ping machinery
            pings = sum(
                1 for e in events
                if e["name"] == "recovery.ping"
                and top["start"] <= e["at"] <= top["end"]
                and e["corr"] == top["corr"]
            )
            views.append(RecoveryView(
                corr=top["corr"],
                start=top["start"],
                end=top["end"],
                outcome=top.get("attrs", {}).get("outcome", "unknown"),
                pings=pings,
                phases=phases,
                error=top.get("error"),
            ))
        return cls(views)

    def render(self) -> str:
        """Human-readable phase breakdown, one block per recovery."""
        if not self.recoveries:
            return "no recoveries in trace"
        t0 = min(view.start for view in self.recoveries)
        lines = [f"{len(self.recoveries)} recover{'y' if len(self.recoveries) == 1 else 'ies'}:"]
        for i, view in enumerate(self.recoveries, 1):
            corr = view.corr or "-"
            lines.append(
                f"  recovery #{i} [{view.outcome}] corr={corr} "
                f"at +{(view.start - t0) * 1e3:.3f} ms, took {view.duration * 1e3:.3f} ms"
                + (f" (error: {view.error})" if view.error else "")
            )
            for phase in view.phases:
                extra = f", {view.pings} ping(s)" if phase.name == "recovery.await_server" and view.pings else ""
                lines.append(f"    {phase.label:32} {phase.duration * 1e3:9.3f} ms{extra}")
        return "\n".join(lines)


def render_tree(records: list[dict], *, corr: str | None = None,
                max_depth: int | None = None) -> str:
    """The whole trace as an indented causal tree.

    Spans nest by parent link; events print at their position inside the
    parent span.  ``corr`` filters to one correlation id (records with no
    id — e.g. off-session bookkeeping — are dropped too).
    """
    if corr is not None:
        records = [r for r in records if r.get("corr") == corr]
    spans = {r["id"]: r for r in records if r.get("kind") == "span"}
    children: dict[int | None, list[dict]] = {}
    for record in records:
        parent = record.get("parent")
        if parent is not None and parent not in spans:
            parent = None  # parent filtered out or never closed: promote
        children.setdefault(parent, []).append(record)

    def timestamp(record: dict) -> float:
        return record["start"] if record["kind"] == "span" else record["at"]

    lines: list[str] = []

    def emit(record: dict, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        indent = "  " * depth
        attrs = " ".join(f"{k}={v}" for k, v in record.get("attrs", {}).items())
        attrs = f"  {attrs}" if attrs else ""
        corr_tag = f" [{record['corr']}]" if record.get("corr") else ""
        if record["kind"] == "span":
            duration = (record["end"] - record["start"]) * 1e3
            error = f"  ERROR: {record['error']}" if record.get("error") else ""
            lines.append(f"{indent}{record['name']} {duration:.3f} ms{corr_tag}{attrs}{error}")
            for child in sorted(children.get(record["id"], []), key=timestamp):
                emit(child, depth + 1)
        else:
            lines.append(f"{indent}· {record['name']}{corr_tag}{attrs}")

    for root in sorted(children.get(None, []), key=timestamp):
        emit(root, 0)
    return "\n".join(lines)
