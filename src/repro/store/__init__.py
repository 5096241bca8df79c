"""Durable record store: session records + reservation-ledger audit.

The pluggable persistence substrate behind the domain configuration
service, which records only into a store it is given; a store never
changes a run's output. :class:`InMemoryRecordStore` keeps the records
in-process; :class:`SqliteRecordStore` survives process restarts, which is what
gives the recovery subsystem (:mod:`repro.store.recovery`) a real
crash-restart scenario: a successor service re-adopts the dead epoch's
persisted sessions and reconciles its dangling ledger holds.

Import note: this package must stay free of :mod:`repro.server` imports
at module scope — the ledger imports record types from here.
"""

from .base import InMemoryRecordStore, RecordStore
from .records import LedgerEvent, LedgerEventKind, SessionRecord, SessionStatus
from .recovery import ReadoptionReport, readopt_sessions
from .sqlite import SqliteRecordStore

__all__ = [
    "InMemoryRecordStore",
    "LedgerEvent",
    "LedgerEventKind",
    "ReadoptionReport",
    "RecordStore",
    "SessionRecord",
    "SessionStatus",
    "SqliteRecordStore",
    "readopt_sessions",
]
