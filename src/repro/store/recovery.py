"""Crash-restart recovery over the durable record store.

When a :class:`~repro.server.service.DomainConfigurationService` dies
mid-scenario, its in-process ledger and sessions die with it — but the
durable store still holds every admitted session's record and the full
audit history of the ledger's holds. A successor service (a fresh
process, new epoch, same store) calls :func:`readopt_sessions` with the
dead service's epoch to settle it:

1. every still-``active`` record of that epoch is re-admitted through
   the successor's admission controller (the caller supplies a factory
   that rebuilds the composition request from the record — the scenario
   compiler provides one keyed on the persisted workload name);
2. records the successor cannot re-admit (capacity changed, workload
   unknown) are marked ``unrecoverable`` — a durable teardown;
3. every transaction of that epoch that committed but never released
   gets a ``reconciled`` closing event, so the dead epoch's audit history
   closes to zero open holds while the successor's live ledger audits
   clean.

Only the named epoch is touched, so services sharing one store (the
domains of a cluster, each with its own epoch) never take over a live
sibling's sessions or holds. The pass is deterministic: records are
visited in session-id order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, TYPE_CHECKING

from .base import RecordStore
from .records import LedgerEventKind, SessionRecord, SessionStatus

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.composition.composer import CompositionRequest
    from repro.server.service import DomainConfigurationService

#: Rebuilds the composition request a persisted session was admitted
#: with; return None when the record cannot be mapped back to a workload.
RequestFactory = Callable[[SessionRecord], "Optional[CompositionRequest]"]


@dataclass
class ReadoptionReport:
    """What one recovery pass did with a dead epoch's sessions."""

    #: The successor's epoch, the dead one it settled, and when.
    epoch: int
    dead_epoch: int
    at_s: float
    persisted_active: int = 0
    readopted: int = 0
    torn_down: int = 0
    reconciled_txns: int = 0
    sessions: List[Dict[str, object]] = field(default_factory=list)
    #: The dead epoch's :meth:`~repro.store.base.RecordStore.ledger_balance`
    #: after reconciliation.
    balance: Dict[str, object] = field(default_factory=dict)

    @property
    def balanced(self) -> bool:
        """True when the dead epoch's audit history closes to zero."""
        return bool(self.balance.get("balanced"))

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "dead_epoch": self.dead_epoch,
            "at_s": self.at_s,
            "persisted_active": self.persisted_active,
            "readopted": self.readopted,
            "torn_down": self.torn_down,
            "reconciled_txns": self.reconciled_txns,
            "balanced": self.balanced,
            "sessions": list(self.sessions),
            "balance": self.balance,
        }


def readopt_sessions(
    service: "DomainConfigurationService",
    request_factory: RequestFactory,
    epoch: int,
) -> ReadoptionReport:
    """Re-adopt (or tear down) every active session of the dead ``epoch``.

    ``service`` must already be booted against the shared store (built
    with ``store=``; its constructor opened its own epoch). Returns a
    report; after it, ``epoch``'s ledger history is balanced and each of
    its ``active`` records is either re-admitted under the successor's
    epoch or marked ``unrecoverable``.
    """
    store: RecordStore = service.store
    now = service.now()
    report = ReadoptionReport(epoch=service.epoch, dead_epoch=epoch, at_s=now)
    orphans = store.sessions(status=SessionStatus.ACTIVE, epoch=epoch)
    report.persisted_active = len(orphans)

    for record in orphans:
        request = request_factory(record)
        action: str
        new_level: Optional[str] = None
        if request is None:
            store.mark_session(
                record.session_id, SessionStatus.UNRECOVERABLE, now
            )
            report.torn_down += 1
            action = "torn_down"
        else:
            result = service.admission.admit(
                request,
                user_id=record.user_id,
                session_id=record.session_id,
                priority=record.priority,
            )
            if result.success:
                store.put_session(
                    replace(
                        record,
                        epoch=service.epoch,
                        level=result.admitted_level,
                        txn_id=result.session.deployment.ledger_txn.txn_id,
                        updated_s=now,
                        readopted_from=record.epoch,
                    )
                )
                report.readopted += 1
                action = "readopted"
                new_level = result.admitted_level
            else:
                store.mark_session(
                    record.session_id, SessionStatus.UNRECOVERABLE, now
                )
                report.torn_down += 1
                action = "torn_down"
        report.sessions.append(
            {
                "session_id": record.session_id,
                "workload": record.workload,
                "from_epoch": record.epoch,
                "previous_level": record.level,
                "action": action,
                "level": new_level,
            }
        )

    # Close the dead epoch's dangling committed holds so its persisted
    # audit history balances — the owning process can never release them.
    for txn_id in store.open_transactions(epoch):
        store.reconcile_transaction(
            epoch,
            txn_id,
            now,
            note=f"epoch {epoch} superseded by epoch {service.epoch}",
        )
        report.reconciled_txns += 1
    report.balance = store.ledger_balance(epoch)
    return report


__all__ = [
    "LedgerEventKind",
    "ReadoptionReport",
    "RequestFactory",
    "readopt_sessions",
]
