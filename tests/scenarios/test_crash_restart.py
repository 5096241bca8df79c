"""Crash mid-horizon, recover a successor epoch from the sqlite store."""

import json
from dataclasses import replace

import pytest

from repro.scenarios import (
    ScenarioValidationError,
    load_catalog_scenario,
    run_crash_restart,
)
from repro.store import SqliteRecordStore


@pytest.fixture(scope="module")
def crash_result(tmp_path_factory):
    path = tmp_path_factory.mktemp("crash") / "sessions.sqlite"
    spec = load_catalog_scenario("conference_mesh")
    return path, run_crash_restart(spec, store_path=str(path))


class TestCrashRestart:
    def test_epochs_advance(self, crash_result):
        _, result = crash_result
        assert result.crashed_epoch == 1
        assert result.resumed_epoch == 2

    def test_sessions_readopted(self, crash_result):
        _, result = crash_result
        report = result.report
        assert result.active_at_crash > 0
        assert report.readopted + report.torn_down == result.active_at_crash
        assert report.readopted > 0

    def test_ledger_balanced(self, crash_result):
        _, result = crash_result
        assert result.balanced
        assert result.report.reconciled_txns >= result.report.readopted

    def test_successor_keeps_serving(self, crash_result):
        _, result = crash_result
        assert result.pre_crash_admitted > 0
        assert result.resumed.submitted > 0

    def test_json_artifact(self, crash_result):
        _, result = crash_result
        payload = json.loads(result.to_json())
        assert payload["balanced"] is True
        assert payload["resumed"]["scenario"] == "conference_mesh"

    def test_store_reflects_both_epochs(self, crash_result):
        path, result = crash_result
        store = SqliteRecordStore(str(path))
        try:
            assert store.current_epoch() == result.resumed_epoch
            readopted = [
                record
                for record in store.sessions()
                if record.readopted_from == result.crashed_epoch
            ]
            assert len(readopted) == result.report.readopted
            # The dead epoch's committed holds are all closed.
            assert store.open_transactions(result.crashed_epoch) == []
        finally:
            store.close()


class TestArguments:
    def test_crash_fraction_bounds(self):
        spec = load_catalog_scenario("conference_mesh")
        with pytest.raises(ValueError, match="crash_at_fraction"):
            run_crash_restart(spec, crash_at_fraction=1.5)

    def test_in_memory_store_works(self):
        spec = load_catalog_scenario("conference_mesh")
        result = run_crash_restart(spec, crash_at_fraction=0.4)
        assert result.balanced


class TestSingleDomain:
    """Crash-restart replays one lone domain with no faults or sessions;
    it refuses every other document instead of quietly running less."""

    def refused_at(self, spec):
        with pytest.raises(ScenarioValidationError) as excinfo:
            run_crash_restart(spec)
        return excinfo.value.path

    def test_refuses_shards(self):
        spec = load_catalog_scenario("stadium_surge")
        assert spec.cluster.shards > 1
        assert self.refused_at(spec) == "cluster.shards"

    def test_refuses_faults(self):
        spec = load_catalog_scenario("vehicular_corridor")
        assert spec.faults is not None and spec.cluster.shards == 1
        assert self.refused_at(spec) == "faults"

    def test_refuses_sessions(self):
        spec = replace(load_catalog_scenario("audio_storm"), faults=None)
        assert spec.sessions
        assert self.refused_at(spec) == "sessions"
