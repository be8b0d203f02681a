"""Phoenix configuration.

The paper's design decisions — stored-procedure fill, ``WHERE 0=1`` metadata
probe, server-side repositioning, the status-table wrapper — are not
configurable: there is one path per decision, and the ablation benchmarks
(DESIGN.md experiments A1–A4) price each alternative from plain-driver
calls.  The fields here tune failure detection, the bounds on waiting out
and rebuilding after one failure and the lock-conflict retry bound — each
is set to a non-default value by some caller (``tests/test_one_path.py``
checks).  A bound with one value in use is a constant beside the loop that
reads it: recoveries per application call is
``repro.core.connection.MAX_OPERATION_RETRIES``, the fleet-recovery pool
size is the default of ``recover_all(max_workers=)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["PhoenixConfig"]


@dataclass
class PhoenixConfig:
    """Knobs for one Phoenix connection."""

    # --- failure detection & reconnection -----------------------------------
    #: how many times to ping a dead server before giving up and passing the
    #: communication error to the application (paper §3: "If after a period
    #: of time Phoenix/ODBC is unable to connect ... it passes the
    #: communication error on to the application").
    max_ping_attempts: int = 50
    #: seconds before the *first* retry ping; later waits grow by
    #: ``ping_backoff_factor`` up to ``ping_max_interval`` (exponential
    #: backoff — a deliberate deviation from the paper's fixed ping loop,
    #: see DESIGN.md §5b: a thundering herd of fixed-interval pings is
    #: exactly what a recovering server does not need).
    ping_interval: float = 0.05
    #: multiplier applied to the ping interval after every failed ping.
    #: 1.0 restores the paper's fixed-interval loop.
    ping_backoff_factor: float = 2.0
    #: cap on the backed-off ping interval, seconds.
    ping_max_interval: float = 2.0
    #: jitter fraction: each wait is scaled by a deterministic pseudo-random
    #: factor in [1 - jitter, 1 + jitter] so a fleet of clients de-correlates
    #: its reconnect storms.  0 disables jitter entirely.
    ping_jitter: float = 0.1
    #: seed for the jitter stream — deterministic by default so every run
    #: of a fault schedule waits the exact same amounts.
    jitter_seed: int = 0
    #: overall wall-clock budget for waiting out one server outage, seconds
    #: (measured by ``clock``).  None = bounded by ``max_ping_attempts``
    #: alone.  When the budget is exhausted the original communication
    #: error is passed to the application, as the paper specifies.
    recovery_deadline: float | None = None
    #: sleep function — tests inject ``lambda _: None``.
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)
    #: monotonic clock used for the recovery deadline — injectable so tests
    #: can advance time without waiting.
    clock: Callable[[], float] = field(default=time.monotonic, repr=False)
    #: how many times a recovery that is itself interrupted by another crash
    #: is restarted before giving up.
    max_recovery_attempts: int = 5

    # --- concurrency --------------------------------------------------------------
    #: transparent retries of a statement the server aborted as a deadlock
    #: victim (or of a batch entry that lost a no-wait lock conflict) before
    #: the error is passed to the application.  A victim's transaction
    #: committed nothing — the server aborted it whole and its status row
    #: never landed — so each retry is a fresh exactly-once execution.
    max_deadlock_retries: int = 8
