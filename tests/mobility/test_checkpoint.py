"""Unit tests for checkpointing."""

import pytest

from repro.mobility.checkpoint import CheckpointStore, ComponentState


class TestComponentState:
    def test_snapshot_is_deep(self):
        state = ComponentState("player", {"queue": [1, 2]}, size_kb=4.0)
        snapshot = state.snapshot()
        snapshot.payload["queue"].append(3)
        assert state.payload["queue"] == [1, 2]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            ComponentState("c", size_kb=-1.0)


class TestStore:
    def test_save_and_restore_roundtrip(self):
        store = CheckpointStore()
        state = ComponentState("player", {"position_s": 120.0})
        store.save(state, timestamp=5.0)
        restored = store.restore("player")
        assert restored is not None
        assert restored.payload["position_s"] == 120.0

    def test_restore_is_independent_copy(self):
        store = CheckpointStore()
        store.save(ComponentState("player", {"position_s": 1.0}))
        first = store.restore("player")
        first.payload["position_s"] = 999.0
        second = store.restore("player")
        assert second.payload["position_s"] == 1.0

    def test_saving_does_not_alias_live_state(self):
        store = CheckpointStore()
        live = ComponentState("player", {"position_s": 1.0})
        store.save(live)
        live.payload["position_s"] = 2.0
        assert store.restore("player").payload["position_s"] == 1.0

    def test_latest_wins(self):
        store = CheckpointStore()
        store.save(ComponentState("c", {"v": 1}), timestamp=1.0)
        store.save(ComponentState("c", {"v": 2}), timestamp=2.0)
        assert store.restore("c").payload["v"] == 2

    def test_retention_limit(self):
        store = CheckpointStore(retain=2)
        for i in range(5):
            store.save(ComponentState("c", {"v": i}))
        history = store.history("c")
        assert len(history) == 2
        assert [cp.state.payload["v"] for cp in history] == [3, 4]

    def test_unknown_component_restores_none(self):
        assert CheckpointStore().restore("ghost") is None
        assert CheckpointStore().latest("ghost") is None

    def test_drop(self):
        store = CheckpointStore()
        store.save(ComponentState("c"))
        store.drop("c")
        assert store.restore("c") is None
        store.drop("c")  # idempotent

    def test_len_counts_all(self):
        store = CheckpointStore()
        store.save(ComponentState("a"))
        store.save(ComponentState("b"))
        store.save(ComponentState("b"))
        assert len(store) == 3

    def test_invalid_retain(self):
        with pytest.raises(ValueError):
            CheckpointStore(retain=0)
