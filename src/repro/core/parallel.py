"""Parallel virtual-session recovery after one server restart.

When a server hosting N virtual sessions comes back, every Phoenix
connection must run the paper's two-phase recovery (rebuild the virtual
session, reinstall SQL state).  Serially that costs N × per-session time;
the sessions are independent — each owns its driver channels and its
server-side state, and the server's dispatch layer interleaves their
requests — so :func:`recover_all` runs them on a bounded worker pool and
the wall-clock cost collapses toward the slowest single session.

Recovery normally triggers lazily, when a session's next statement meets
the broken channel.  ``recover_all`` triggers it *eagerly* for a whole
fleet: each worker probes its session (the proxy-table test decides
"survived" vs "gone") and rebuilds if needed, exactly as the lazy path
would.  A connection that was never touched by the crash (the probe hits)
is reported as not rebuilt — eager recovery is idempotent.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from repro.errors import SessionLostError
from repro.obs.tracer import get_tracer

if TYPE_CHECKING:
    from repro.core.connection import PhoenixConnection

__all__ = ["RecoveryOutcome", "recover_all"]


@dataclass
class RecoveryOutcome:
    """What happened to one connection during a fleet recovery."""

    connection: "PhoenixConnection"
    #: True = session rebuilt, False = survived (spurious), None = failed
    rebuilt: bool | None
    error: Exception | None = None


def recover_all(
    connections: Sequence["PhoenixConnection"],
    *,
    max_workers: int = 8,
) -> list[RecoveryOutcome]:
    """Recover every connection's virtual session, in parallel.

    ``max_workers`` bounds the pool.  Returns one :class:`RecoveryOutcome`
    per connection, in input order; a session whose recovery fails gets
    its exception in ``error`` instead of poisoning the rest of the fleet.
    """
    if not connections:
        return []
    max_workers = max(1, min(max_workers, len(connections)))

    def _recover_one(connection: "PhoenixConnection") -> RecoveryOutcome:
        cause = SessionLostError(
            "eager fleet recovery after server restart"
        )
        try:
            rebuilt = connection.recovery.recover(cause)
            return RecoveryOutcome(connection, rebuilt)
        except Exception as exc:  # report per-session, never poison the pool
            return RecoveryOutcome(connection, None, exc)

    with get_tracer().span(
        "recovery.fleet", sessions=len(connections), workers=max_workers
    ) as span:
        if max_workers == 1:
            outcomes = [_recover_one(connection) for connection in connections]
        else:
            with ThreadPoolExecutor(
                max_workers=max_workers, thread_name_prefix="phoenix-recover"
            ) as pool:
                outcomes = list(pool.map(_recover_one, connections))
        span.set(
            rebuilt=sum(1 for o in outcomes if o.rebuilt),
            failed=sum(1 for o in outcomes if o.error is not None),
        )
    return outcomes
