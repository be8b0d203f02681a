"""Transaction objects and state tracking.

A :class:`Transaction` remembers the WAL records it produced so abort can
undo them in reverse, and whether it has logged anything at all: its BEGIN
record is written with its first durable record, so a transaction that
changes nothing durable never reaches the log.  Lifecycle: ACTIVE →
COMMITTED | ABORTED.  The logged mutation API lives on
:class:`~repro.engine.database.Database`; this module only carries state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import TransactionError
from repro.engine.wal import LogRecord

__all__ = ["TxnState", "Transaction", "TransactionManager"]


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


@dataclass
class Transaction:
    """One transaction: id, state, and its undo trail."""

    txn_id: int
    state: TxnState = TxnState.ACTIVE
    records: list[LogRecord] = field(default_factory=list)
    #: set once the BEGIN record is in the log (with the first durable
    #: record); a transaction that never logged commits and aborts without
    #: a record or a force
    logged: bool = False

    def require_active(self) -> None:
        if self.state is not TxnState.ACTIVE:
            raise TransactionError(f"transaction {self.txn_id} is {self.state.value}")


class TransactionManager:
    """Hands out transaction ids and tracks active transactions.

    Ids restart from max(logged ids)+1 after recovery so ids never collide
    across a crash (``seed`` is supplied by restart recovery); the id of a
    transaction that never logged may be handed out again, since nothing
    durable names it.
    """

    def __init__(self, seed: int = 0):
        self._next_id = seed + 1
        self._active: dict[int, Transaction] = {}

    def begin(self) -> Transaction:
        txn = Transaction(self._next_id)
        self._next_id += 1
        self._active[txn.txn_id] = txn
        return txn

    def finish(self, txn: Transaction, state: TxnState) -> None:
        txn.state = state
        self._active.pop(txn.txn_id, None)

    def active_ids(self) -> list[int]:
        return sorted(self._active)

    def logged_ids(self) -> list[int]:
        """Active transactions that have written to the log."""
        return sorted(t for t, txn in self._active.items() if txn.logged)

    def get(self, txn_id: int) -> Transaction | None:
        return self._active.get(txn_id)
