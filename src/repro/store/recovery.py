"""Crash-restart recovery over the durable record store.

When a :class:`~repro.server.service.DomainConfigurationService` dies
mid-scenario, its in-process ledger and sessions die with it — but the
durable store still holds every admitted session's record and the full
audit history of the ledger's holds. A successor service (a fresh
process, new epoch, same store) calls :func:`readopt_sessions` to settle
the dead epoch:

1. every still-``active`` record from an older epoch is re-admitted
   through the successor's admission controller (the caller supplies a
   factory that rebuilds the composition request from the record — the
   scenario compiler provides one keyed on the persisted workload name);
2. records the successor cannot re-admit (capacity changed, workload
   unknown) are marked ``unrecoverable`` — a durable teardown;
3. every dead-epoch transaction that committed but never released gets a
   ``reconciled`` closing event, so *both* ledgers balance: the
   successor's live ledger audits clean, and the store's per-epoch
   histories all close to zero open holds.

The pass is deterministic: records are visited in session-id order.
"""

from __future__ import annotations

import json
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

    epoch: int
    persisted_active: int = 0
    readopted: int = 0
    torn_down: int = 0
    reconciled_txns: int = 0
    sessions: List[Dict[str, object]] = field(default_factory=list)
    balances: List[Dict[str, object]] = field(default_factory=list)

    @property
    def balanced(self) -> bool:
        """True when every prior epoch's audit history closes to zero."""
        return all(entry["balanced"] for entry in self.balances)

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "persisted_active": self.persisted_active,
            "readopted": self.readopted,
            "torn_down": self.torn_down,
            "reconciled_txns": self.reconciled_txns,
            "balanced": self.balanced,
            "sessions": list(self.sessions),
            "balances": list(self.balances),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


def readopt_sessions(
    service: "DomainConfigurationService",
    request_factory: RequestFactory,
) -> ReadoptionReport:
    """Re-adopt (or tear down) every prior epoch's persisted session.

    ``service`` must already be booted against the shared store (built
    with ``store=``; its constructor opened the new epoch). Returns a report; after it, the
    store's prior-epoch ledger histories are balanced and every prior
    ``active`` record is either re-admitted under the new epoch or marked
    ``unrecoverable``.
    """
    store: RecordStore = service.store
    epoch = service.epoch
    now = service.now()
    report = ReadoptionReport(epoch=epoch)
    orphans = store.active_sessions_before(epoch)
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
                        epoch=epoch,
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

    # Close every dead epoch's dangling committed holds so the persisted
    # audit history balances — the owning process can never release them.
    for old_epoch in range(1, epoch):
        for txn_id in store.open_transactions(old_epoch):
            store.reconcile_transaction(
                old_epoch,
                txn_id,
                now,
                note=f"epoch {old_epoch} superseded by epoch {epoch}",
            )
            report.reconciled_txns += 1
        report.balances.append(store.ledger_balance(old_epoch))
    return report


__all__ = [
    "LedgerEventKind",
    "ReadoptionReport",
    "RequestFactory",
    "readopt_sessions",
]
