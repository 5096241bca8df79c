"""Pluggable durable record store behind the domain service.

`RecordStore` is the persistence seam: the domain configuration service
writes one :class:`~repro.store.records.SessionRecord` per admitted
session and the reservation ledger appends one
:class:`~repro.store.records.LedgerEvent` per state transition, when a
store is passed to the service. :class:`InMemoryRecordStore` keeps
everything in-process; the sqlite implementation in
:mod:`repro.store.sqlite` survives process restarts so the recovery pass
in :mod:`repro.store.recovery` can re-adopt a dead epoch's sessions.

Stores are thread-safe: thread-pool drivers call into them from worker
threads while the ledger holds its own lock.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Set

from .records import LedgerEvent, LedgerEventKind, SessionRecord


class RecordStore(ABC):
    """Durable store for session records and ledger audit history."""

    # -- epochs ------------------------------------------------------

    @abstractmethod
    def open_epoch(self) -> int:
        """Allocate and return the next service-boot epoch (1, 2, ...)."""

    @abstractmethod
    def current_epoch(self) -> int:
        """Latest epoch opened so far (0 when none)."""

    # -- sessions ----------------------------------------------------

    @abstractmethod
    def put_session(self, record: SessionRecord) -> None:
        """Insert or replace the record keyed by ``session_id``."""

    @abstractmethod
    def session(self, session_id: str) -> Optional[SessionRecord]:
        """Fetch one record, or None."""

    @abstractmethod
    def sessions(
        self, status: Optional[str] = None, epoch: Optional[int] = None
    ) -> List[SessionRecord]:
        """Records matching the filters, ordered by ``session_id``."""

    @abstractmethod
    def mark_session(self, session_id: str, status: str, at_s: float) -> bool:
        """Update one record's status; returns False when absent."""

    # -- ledger events -----------------------------------------------

    @abstractmethod
    def append_ledger_event(self, event: LedgerEvent) -> LedgerEvent:
        """Append one audit event; returns it with ``seq`` assigned."""

    @abstractmethod
    def ledger_events(
        self,
        epoch: Optional[int] = None,
        txn_id: Optional[int] = None,
    ) -> List[LedgerEvent]:
        """Audit history matching the filters, ordered by ``seq``."""

    # -- derived queries (shared implementations) --------------------

    def open_transactions(self, epoch: int) -> List[int]:
        """Committed txn ids in ``epoch`` with no release/reconcile yet."""
        opened: Set[int] = set()
        closed: Set[int] = set()
        for event in self.ledger_events(epoch=epoch):
            if event.kind in LedgerEventKind.OPENERS:
                opened.add(event.txn_id)
            elif event.kind in LedgerEventKind.CLOSERS:
                closed.add(event.txn_id)
        return sorted(opened - closed)

    def ledger_balance(self, epoch: int) -> Dict[str, object]:
        """Per-epoch audit summary: event counts plus still-open txns."""
        counts: Dict[str, int] = {}
        for event in self.ledger_events(epoch=epoch):
            counts[event.kind] = counts.get(event.kind, 0) + 1
        open_txns = self.open_transactions(epoch)
        return {
            "epoch": epoch,
            "counts": {kind: counts[kind] for kind in sorted(counts)},
            "open_txns": open_txns,
            "balanced": not open_txns,
        }

    def reconcile_transaction(
        self, epoch: int, txn_id: int, at_s: float, note: str = ""
    ) -> LedgerEvent:
        """Close a dead epoch's committed hold with a ``reconciled`` event."""
        return self.append_ledger_event(
            LedgerEvent(
                epoch=epoch,
                txn_id=txn_id,
                kind=LedgerEventKind.RECONCILED,
                at_s=at_s,
                note=note,
            )
        )

    def close(self) -> None:
        """Release any underlying resources (no-op by default)."""


class InMemoryRecordStore(RecordStore):
    """Dict-backed store: the records of one process, lost with it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._sessions: Dict[str, SessionRecord] = {}
        self._events: List[LedgerEvent] = []

    def open_epoch(self) -> int:
        with self._lock:
            self._epoch += 1
            return self._epoch

    def current_epoch(self) -> int:
        with self._lock:
            return self._epoch

    def put_session(self, record: SessionRecord) -> None:
        with self._lock:
            self._sessions[record.session_id] = record

    def session(self, session_id: str) -> Optional[SessionRecord]:
        with self._lock:
            return self._sessions.get(session_id)

    def sessions(
        self, status: Optional[str] = None, epoch: Optional[int] = None
    ) -> List[SessionRecord]:
        with self._lock:
            records: Iterable[SessionRecord] = self._sessions.values()
            if status is not None:
                records = [r for r in records if r.status == status]
            if epoch is not None:
                records = [r for r in records if r.epoch == epoch]
            return sorted(records, key=lambda r: r.session_id)

    def mark_session(self, session_id: str, status: str, at_s: float) -> bool:
        with self._lock:
            record = self._sessions.get(session_id)
            if record is None:
                return False
            self._sessions[session_id] = replace(
                record, status=status, updated_s=at_s
            )
            return True

    def append_ledger_event(self, event: LedgerEvent) -> LedgerEvent:
        with self._lock:
            stamped = event.with_seq(len(self._events) + 1)
            self._events.append(stamped)
            return stamped

    def ledger_events(
        self,
        epoch: Optional[int] = None,
        txn_id: Optional[int] = None,
    ) -> List[LedgerEvent]:
        with self._lock:
            events: Iterable[LedgerEvent] = self._events
            if epoch is not None:
                events = [e for e in events if e.epoch == epoch]
            if txn_id is not None:
                events = [e for e in events if e.txn_id == txn_id]
            return list(events)
