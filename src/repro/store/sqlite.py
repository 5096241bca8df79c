"""Sqlite-backed :class:`~repro.store.base.RecordStore`.

Three tables: ``epochs`` (one row per service boot), ``sessions`` (one
row per admitted session, keyed by session id), and ``ledger_events``
(append-only audit history; ``seq`` is the rowid). Holds are stored as
canonical JSON so a row round-trips to the exact
:class:`~repro.store.records.LedgerEvent` tuple form.

The connection is shared across threads (``check_same_thread=False``)
behind one lock — writes are tiny and the domain service already
serializes ledger transitions under its own lock, so contention is not a
concern at this scale.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from dataclasses import replace
from typing import List, Optional, Tuple

from .records import LedgerEvent, SessionRecord
from .base import RecordStore

_SCHEMA = """
CREATE TABLE IF NOT EXISTS epochs (
    epoch INTEGER PRIMARY KEY AUTOINCREMENT,
    opened_at REAL NOT NULL DEFAULT 0.0
);
CREATE TABLE IF NOT EXISTS sessions (
    session_id TEXT PRIMARY KEY,
    request_id TEXT NOT NULL,
    epoch INTEGER NOT NULL,
    user_id TEXT,
    scenario TEXT,
    workload TEXT,
    client_device TEXT,
    level TEXT,
    priority INTEGER NOT NULL DEFAULT 0,
    status TEXT NOT NULL,
    txn_id INTEGER,
    created_s REAL NOT NULL DEFAULT 0.0,
    updated_s REAL NOT NULL DEFAULT 0.0,
    ends_s REAL,
    readopted_from INTEGER
);
CREATE INDEX IF NOT EXISTS idx_sessions_status_epoch
    ON sessions (status, epoch);
CREATE TABLE IF NOT EXISTS ledger_events (
    seq INTEGER PRIMARY KEY AUTOINCREMENT,
    epoch INTEGER NOT NULL,
    txn_id INTEGER NOT NULL,
    kind TEXT NOT NULL,
    at_s REAL NOT NULL,
    owner TEXT NOT NULL DEFAULT '',
    device_holds TEXT NOT NULL DEFAULT '[]',
    link_holds TEXT NOT NULL DEFAULT '[]',
    note TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS idx_ledger_events_epoch
    ON ledger_events (epoch);
"""


def _dump_device_holds(
    holds: Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...]
) -> str:
    return json.dumps(
        [[device, [list(item) for item in items]] for device, items in holds],
        separators=(",", ":"),
    )


def _load_device_holds(
    payload: str,
) -> Tuple[Tuple[str, Tuple[Tuple[str, float], ...]], ...]:
    return tuple(
        (device, tuple((name, float(value)) for name, value in items))
        for device, items in json.loads(payload)
    )


def _dump_link_holds(holds: Tuple[Tuple[str, float], ...]) -> str:
    return json.dumps([list(item) for item in holds], separators=(",", ":"))


def _load_link_holds(payload: str) -> Tuple[Tuple[str, float], ...]:
    return tuple((key, float(value)) for key, value in json.loads(payload))


class SqliteRecordStore(RecordStore):
    """Durable store at ``path`` (``":memory:"`` works for tests)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(path, check_same_thread=False)
        self._conn.executescript(_SCHEMA)
        columns = {
            row[1] for row in self._conn.execute("PRAGMA table_info(sessions)")
        }
        if "ends_s" not in columns:
            # A file written before session records kept their end.
            self._conn.execute("ALTER TABLE sessions ADD COLUMN ends_s REAL")
        self._conn.commit()

    # -- epochs ------------------------------------------------------

    def open_epoch(self) -> int:
        with self._lock:
            cursor = self._conn.execute(
                "INSERT INTO epochs (opened_at) VALUES (0.0)"
            )
            self._conn.commit()
            return int(cursor.lastrowid)

    def current_epoch(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT MAX(epoch) FROM epochs").fetchone()
            return int(row[0]) if row[0] is not None else 0

    # -- sessions ----------------------------------------------------

    def put_session(self, record: SessionRecord) -> None:
        with self._lock:
            self._conn.execute(
                """
                INSERT OR REPLACE INTO sessions (
                    session_id, request_id, epoch, user_id, scenario,
                    workload, client_device, level, priority, status,
                    txn_id, created_s, updated_s, ends_s, readopted_from
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    record.session_id,
                    record.request_id,
                    record.epoch,
                    record.user_id,
                    record.scenario,
                    record.workload,
                    record.client_device,
                    record.level,
                    record.priority,
                    record.status,
                    record.txn_id,
                    record.created_s,
                    record.updated_s,
                    record.ends_s,
                    record.readopted_from,
                ),
            )
            self._conn.commit()

    _SESSION_COLUMNS = (
        "session_id, request_id, epoch, user_id, scenario, workload, "
        "client_device, level, priority, status, txn_id, created_s, "
        "updated_s, ends_s, readopted_from"
    )

    @staticmethod
    def _session_from_row(row: Tuple) -> SessionRecord:
        return SessionRecord(
            session_id=row[0],
            request_id=row[1],
            epoch=int(row[2]),
            user_id=row[3],
            scenario=row[4],
            workload=row[5],
            client_device=row[6],
            level=row[7],
            priority=int(row[8]),
            status=row[9],
            txn_id=int(row[10]) if row[10] is not None else None,
            created_s=float(row[11]),
            updated_s=float(row[12]),
            ends_s=float(row[13]) if row[13] is not None else None,
            readopted_from=int(row[14]) if row[14] is not None else None,
        )

    def session(self, session_id: str) -> Optional[SessionRecord]:
        with self._lock:
            row = self._conn.execute(
                f"SELECT {self._SESSION_COLUMNS} FROM sessions"
                " WHERE session_id = ?",
                (session_id,),
            ).fetchone()
            return self._session_from_row(row) if row is not None else None

    def sessions(
        self, status: Optional[str] = None, epoch: Optional[int] = None
    ) -> List[SessionRecord]:
        clauses: List[str] = []
        params: List[object] = []
        if status is not None:
            clauses.append("status = ?")
            params.append(status)
        if epoch is not None:
            clauses.append("epoch = ?")
            params.append(epoch)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT {self._SESSION_COLUMNS} FROM sessions{where}"
                " ORDER BY session_id",
                params,
            ).fetchall()
        return [self._session_from_row(row) for row in rows]

    def mark_session(self, session_id: str, status: str, at_s: float) -> bool:
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE sessions SET status = ?, updated_s = ?"
                " WHERE session_id = ?",
                (status, at_s, session_id),
            )
            self._conn.commit()
            return cursor.rowcount > 0

    # -- ledger events -----------------------------------------------

    def append_ledger_event(self, event: LedgerEvent) -> LedgerEvent:
        with self._lock:
            cursor = self._conn.execute(
                """
                INSERT INTO ledger_events (
                    epoch, txn_id, kind, at_s, owner,
                    device_holds, link_holds, note
                ) VALUES (?, ?, ?, ?, ?, ?, ?, ?)
                """,
                (
                    event.epoch,
                    event.txn_id,
                    event.kind,
                    event.at_s,
                    event.owner,
                    _dump_device_holds(event.device_holds),
                    _dump_link_holds(event.link_holds),
                    event.note,
                ),
            )
            self._conn.commit()
            return replace(event, seq=int(cursor.lastrowid))

    def ledger_events(
        self,
        epoch: Optional[int] = None,
        txn_id: Optional[int] = None,
    ) -> List[LedgerEvent]:
        clauses: List[str] = []
        params: List[object] = []
        if epoch is not None:
            clauses.append("epoch = ?")
            params.append(epoch)
        if txn_id is not None:
            clauses.append("txn_id = ?")
            params.append(txn_id)
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._conn.execute(
                "SELECT seq, epoch, txn_id, kind, at_s, owner,"
                " device_holds, link_holds, note"
                f" FROM ledger_events{where} ORDER BY seq",
                params,
            ).fetchall()
        return [
            LedgerEvent(
                seq=int(row[0]),
                epoch=int(row[1]),
                txn_id=int(row[2]),
                kind=row[3],
                at_s=float(row[4]),
                owner=row[5],
                device_holds=_load_device_holds(row[6]),
                link_holds=_load_link_holds(row[7]),
                note=row[8],
            )
            for row in rows
        ]

    def close(self) -> None:
        with self._lock:
            self._conn.close()
