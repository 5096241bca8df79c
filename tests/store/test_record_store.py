"""Unit tests for the pluggable durable record store."""

import json

import pytest

from repro.store import (
    InMemoryRecordStore,
    LedgerEvent,
    LedgerEventKind,
    SessionRecord,
    SessionStatus,
    SqliteRecordStore,
)


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path):
    if request.param == "memory":
        store = InMemoryRecordStore()
    else:
        store = SqliteRecordStore(str(tmp_path / "records.sqlite"))
    yield store
    store.close()


def _record(session_id="s-1", epoch=1, **kwargs):
    return SessionRecord(
        session_id=session_id,
        request_id=f"req-{session_id}",
        epoch=epoch,
        **kwargs,
    )


class TestEpochs:
    def test_monotonic(self, store):
        assert store.current_epoch() == 0
        assert store.open_epoch() == 1
        assert store.open_epoch() == 2
        assert store.current_epoch() == 2


class TestSessions:
    def test_put_get_roundtrip(self, store):
        record = _record(
            user_id="user-1",
            scenario="mini",
            workload="watch",
            client_device="kiosk",
            level="full",
            priority=2,
            txn_id=7,
            created_s=1.5,
        )
        store.put_session(record)
        assert store.session("s-1") == record
        assert store.session("missing") is None

    def test_filters(self, store):
        store.put_session(_record("s-1", epoch=1))
        store.put_session(
            _record("s-2", epoch=1, status=SessionStatus.RELEASED)
        )
        store.put_session(_record("s-3", epoch=2))
        active = store.sessions(status=SessionStatus.ACTIVE)
        assert [r.session_id for r in active] == ["s-1", "s-3"]
        assert [r.session_id for r in store.sessions(epoch=1)] == ["s-1", "s-2"]
        dead = store.sessions(status=SessionStatus.ACTIVE, epoch=1)
        assert [r.session_id for r in dead] == ["s-1"]

    def test_mark_session(self, store):
        store.put_session(_record("s-1"))
        assert store.mark_session("s-1", SessionStatus.RELEASED, 9.0)
        updated = store.session("s-1")
        assert updated.status == SessionStatus.RELEASED
        assert updated.updated_s == pytest.approx(9.0)
        assert not store.mark_session("missing", SessionStatus.RELEASED, 9.0)


class TestLedgerEvents:
    def test_append_assigns_seq(self, store):
        first = store.append_ledger_event(
            LedgerEvent(epoch=1, txn_id=1, kind=LedgerEventKind.COMMITTED, at_s=0.5)
        )
        second = store.append_ledger_event(
            LedgerEvent(epoch=1, txn_id=1, kind=LedgerEventKind.RELEASED, at_s=1.5)
        )
        assert (first.seq, second.seq) == (1, 2)
        assert [e.seq for e in store.ledger_events(epoch=1)] == [1, 2]

    def test_holds_roundtrip(self, store):
        event = LedgerEvent(
            epoch=1,
            txn_id=3,
            kind=LedgerEventKind.COMMITTED,
            at_s=2.0,
            owner="svc",
            device_holds=LedgerEvent.pack_devices(
                {"hub": {"memory": 32.0, "cpu": 0.5}}
            ),
            link_holds=LedgerEvent.pack_links({("a", "b"): 1.5}),
        )
        store.append_ledger_event(event)
        (fetched,) = store.ledger_events(txn_id=3)
        assert fetched.device_holds == event.device_holds
        assert fetched.link_holds == event.link_holds

    def test_balance_and_reconcile(self, store):
        store.append_ledger_event(
            LedgerEvent(epoch=1, txn_id=1, kind=LedgerEventKind.COMMITTED, at_s=0.0)
        )
        store.append_ledger_event(
            LedgerEvent(epoch=1, txn_id=2, kind=LedgerEventKind.COMMITTED, at_s=0.0)
        )
        store.append_ledger_event(
            LedgerEvent(epoch=1, txn_id=1, kind=LedgerEventKind.RELEASED, at_s=1.0)
        )
        assert store.open_transactions(1) == [2]
        assert not store.ledger_balance(1)["balanced"]
        store.reconcile_transaction(1, 2, at_s=2.0, note="crash recovery")
        assert store.open_transactions(1) == []
        assert store.ledger_balance(1)["balanced"]


class TestRecordValues:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"session_id": ""}, "session_id"),
            ({"epoch": -1}, "epoch"),
        ],
        ids=["empty-session-id", "negative-epoch"],
    )
    def test_invalid_record_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            _record(**kwargs)

    def test_with_status_stamps_time_and_keeps_identity(self):
        record = _record(created_s=1.0, updated_s=1.0)
        assert record.active
        closed = record.with_status(SessionStatus.UNRECOVERABLE, 4.5)
        assert not closed.active
        assert (closed.updated_s, closed.created_s) == (4.5, 1.0)
        assert closed.session_id == record.session_id
        assert record.status == SessionStatus.ACTIVE  # frozen original

    def test_session_to_dict_rounds_times(self):
        record = _record(created_s=1.0000004, updated_s=2.5, level="full")
        payload = record.to_dict()
        assert payload["created_s"] == 1.0
        assert payload["level"] == "full"
        assert payload["readopted_from"] is None
        assert json.loads(json.dumps(payload)) == payload

    def test_ledger_event_to_dict_unpacks_holds(self):
        event = LedgerEvent(
            epoch=1,
            txn_id=3,
            kind=LedgerEventKind.COMMITTED,
            at_s=2.0,
            device_holds=LedgerEvent.pack_devices(
                {"hub": {"memory": 32.0, "cpu": 0.5}}
            ),
            link_holds=LedgerEvent.pack_links({("a", "b"): 1.5}),
        ).with_seq(7)
        payload = event.to_dict()
        assert payload["seq"] == 7
        assert payload["device_holds"] == {"hub": {"cpu": 0.5, "memory": 32.0}}
        assert payload["link_holds"] == {"a<->b": 1.5}


class TestSqlitePersistence:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "durable.sqlite")
        first = SqliteRecordStore(path)
        epoch = first.open_epoch()
        first.put_session(_record("s-1", epoch=epoch, txn_id=1))
        first.append_ledger_event(
            LedgerEvent(
                epoch=epoch, txn_id=1, kind=LedgerEventKind.COMMITTED, at_s=0.0
            )
        )
        first.close()

        second = SqliteRecordStore(path)
        assert second.current_epoch() == epoch
        assert second.session("s-1").txn_id == 1
        assert second.open_transactions(epoch) == [1]
        assert second.open_epoch() == epoch + 1
        second.close()

    def test_memory_store_is_private(self):
        store = SqliteRecordStore(":memory:")
        store.open_epoch()
        assert store.current_epoch() == 1
        store.close()
