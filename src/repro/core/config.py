"""Phoenix configuration.

The paper's design decisions — stored-procedure fill, ``WHERE 0=1`` metadata
probe, server-side repositioning, the status-table wrapper — are not
configurable: there is one path per decision, and the ablation benchmarks
(DESIGN.md experiments A1–A4) price each alternative from plain-driver
calls.  The fields here are the two values a caller outside the tests
sets (``tests/test_one_path.py`` checks): the sleep that stands in for the
operator between recovery pings, and the lock-conflict retry bound.  A
bound with one value in use is a constant beside the loop that reads it:
the ping loop and the rebuild bound are ``repro.core.recovery``'s
``MAX_PING_ATTEMPTS`` … ``MAX_RECOVERY_ATTEMPTS``, recoveries per
application call is ``repro.core.connection.MAX_OPERATION_RETRIES``, the
fleet-recovery pool size is the default of ``recover_all(max_workers=)``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["PhoenixConfig"]


@dataclass
class PhoenixConfig:
    """Knobs for one Phoenix connection."""

    #: sleep between recovery pings — the chaos explorer and the benchmarks
    #: install a hook that restarts a downed server here, standing in for
    #: the operator or watchdog the paper assumes.
    sleep: Callable[[float], None] = field(default=time.sleep, repr=False)

    # --- concurrency --------------------------------------------------------------
    #: transparent retries of a statement the server aborted as a deadlock
    #: victim (or of a batch entry that lost a no-wait lock conflict) before
    #: the error is passed to the application.  A victim's transaction
    #: committed nothing — the server aborted it whole and its status row
    #: never landed — so each retry is a fresh exactly-once execution.
    max_deadlock_retries: int = 8
