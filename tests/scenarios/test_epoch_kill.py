"""Crash-restart as a fault: ``epoch_kill`` inside the one sim replay.

Every domain's service dies at the kill without teardown and a successor
boots on the same record store. These runs kill at a quarter, half and
three quarters of the horizon, on one and two shards, for the conference
mesh and for the audio lab's arrivals on top of its held sessions and
fault storm, and check the north-star invariants across the kill.
"""

import json
from dataclasses import replace

import pytest

from repro.scenarios import (
    compile_scenario,
    load_catalog_scenario,
    run_scenario,
)
from repro.scenarios import runner
from repro.scenarios.spec import (
    FaultsSpec,
    ScenarioSpec,
    ScenarioValidationError,
    ScriptedFaultSpec,
)
from repro.server import drivers
from repro.store import InMemoryRecordStore, SessionStatus, SqliteRecordStore

FRACTIONS = (0.25, 0.5, 0.75)


def conference():
    return load_catalog_scenario("conference_mesh")


def storm_with_arrivals():
    """``audio_storm``'s held sessions and fault storm under ``audio_lab``'s
    arrivals (the two documents declare one lab)."""
    storm = load_catalog_scenario("audio_storm")
    arrivals = load_catalog_scenario("audio_lab").arrivals
    return replace(storm, arrivals=replace(arrivals, horizon_s=240.0))


DOCUMENTS = {"conference": conference, "storm": storm_with_arrivals}


def killed(document, shards, fraction):
    spec = DOCUMENTS[document]()
    kill = ScriptedFaultSpec(
        kind="epoch_kill", at_s=spec.arrivals.horizon_s * fraction
    )
    faults = spec.faults or FaultsSpec()
    return replace(
        spec,
        faults=replace(faults, scripted=[*faults.scripted, kill]),
        cluster=replace(spec.cluster, shards=shards),
    )


CASES = [
    (document, shards, fraction)
    for document in DOCUMENTS
    for shards in (1, 2)
    for fraction in FRACTIONS
]


@pytest.fixture(
    scope="module",
    params=CASES,
    ids=[f"{doc}-{shards}shard-{fraction:g}" for doc, shards, fraction in CASES],
)
def runs(request, tmp_path_factory):
    spec = killed(*request.param)
    audits = []
    real = drivers.audit_or_raise

    def spy(target, context):
        audits.append(target.audit())
        real(target, context)

    sqlite = SqliteRecordStore(
        str(tmp_path_factory.mktemp("kill") / "sessions.sqlite")
    )
    memory = InMemoryRecordStore()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(drivers, "audit_or_raise", spy)
        first = run_scenario(spec, store=sqlite)
        second = run_scenario(spec, store=memory)
        bare = run_scenario(spec)
    yield spec, first, second, bare, sqlite, audits
    sqlite.close()


def dead_epochs(result):
    return [kill["dead_epoch"] for _, kill in result.epoch_kills()]


class TestEpochKill:
    def test_every_domain_is_killed_once(self, runs):
        spec, first, _, _, store, _ = runs
        kills = first.epoch_kills()
        assert [name for name, _ in kills] == list(first.domains)
        assert len(kills) == spec.cluster.shards
        # Each domain opened one epoch, and its successor another.
        assert store.current_epoch() == 2 * spec.cluster.shards

    def test_every_epoch_ledger_balances(self, runs):
        _, first, _, _, store, _ = runs
        assert first.balanced
        dead = dead_epochs(first)
        for epoch in range(1, store.current_epoch() + 1):
            balance = store.ledger_balance(epoch)
            active = store.sessions(status=SessionStatus.ACTIVE, epoch=epoch)
            if epoch in dead:
                assert balance["balanced"], balance
            else:
                # A live epoch's open holds are its still-running
                # (re-adopted) sessions' transactions, one each.
                assert len(balance["open_txns"]) == len(active)

    def test_no_session_is_active_in_two_epochs(self, runs):
        _, first, _, _, store, _ = runs
        dead = dead_epochs(first)
        active = store.sessions(status=SessionStatus.ACTIVE)
        assert all(record.epoch not in dead for record in active)
        for _, kill in first.epoch_kills():
            ids = [entry["session_id"] for entry in kill["sessions"]]
            assert len(ids) == len(set(ids)) == kill["persisted_active"]
            for entry in kill["sessions"]:
                record = store.session(entry["session_id"])
                if entry["action"] == "readopted":
                    assert record.readopted_from == kill["dead_epoch"]
                    assert record.epoch == kill["epoch"]
                else:
                    assert record.status == SessionStatus.UNRECOVERABLE

    def test_live_ledgers_audit_clean(self, runs):
        _, _, _, _, _, audits = runs
        assert audits == [[], [], []]

    def test_readopted_sessions_stop_at_their_persisted_end(self, runs):
        """A re-adopted session keeps its departure time: the successor
        releases it at its stored end, or at the kill when that passed."""
        spec, first, _, _, store, _ = runs
        trace = compile_scenario(spec).arrival_trace()
        durations = {f"req-{e.request_id}": e.duration_s for e in trace}
        killed_at = {kill["epoch"]: kill["at_s"] for _, kill in first.epoch_kills()}
        torn_down = {
            report["session_id"]
            for reading in first.domains.values()
            for report in reading.get("recovery", {}).get("reports", ())
            if not report["recovered"]
        }
        readopted = [r for r in store.sessions() if r.readopted_from]
        for record in readopted:
            assert record.ends_s == pytest.approx(
                record.created_s + durations[record.request_id]
            )
            if record.session_id in torn_down:
                continue
            assert record.status == SessionStatus.RELEASED
            assert record.updated_s == pytest.approx(
                max(record.ends_s, killed_at[record.epoch])
            )
        if spec.faults.random is None:
            assert readopted

    def test_killed_requests_count_as_failed(self, runs):
        _, first, _, _, _, _ = runs
        assert first.submitted == first.admitted + first.shed + first.failed

    def test_stores_give_identical_json(self, runs):
        _, first, second, bare, _, _ = runs
        assert first.to_json() == second.to_json() == bare.to_json()
        assert json.loads(first.to_json())["domains"] == first.domains

    def test_replay_is_byte_identical(self, runs):
        spec, first, _, _, _, _ = runs
        assert run_scenario(spec).to_json() == first.to_json()


class TestConferenceCrash:
    """The catalog document's readout across its one kill."""

    def test_readout(self):
        result = run_scenario(load_catalog_scenario("conference_crash"))
        ((name, kill),) = result.epoch_kills()
        assert name == "shard0"
        assert (kill["dead_epoch"], kill["epoch"], kill["at_s"]) == (1, 2, 120.0)
        assert (kill["admitted"], kill["persisted_active"]) == (10, 4)
        assert (kill["readopted"], kill["torn_down"]) == (4, 0)
        assert kill["reconciled_txns"] == 4 and kill["balanced"]
        # Epoch 1 admitted 10 of 10; the successor 11 of 13, failing 2.
        # The re-adopted sessions leave on time, so the run reads like
        # the document without its kill.
        assert (result.submitted, result.admitted, result.failed) == (23, 21, 2)
        bare = run_scenario(load_catalog_scenario("conference_mesh"))
        assert (bare.admitted, bare.failed) == (21, 2)
        assert "shard0: epoch 1 killed at t=120s" in result.format_table()

    def test_kill_needs_no_recovery_stack(self):
        result = run_scenario(load_catalog_scenario("conference_crash"))
        bare = run_scenario(load_catalog_scenario("conference_mesh"))
        assert not result.faulted and result.recovery is None
        assert result.submitted == bare.submitted


class TestTwoKills:
    def test_a_successor_is_killed_in_turn(self):
        spec = killed("conference", 2, 70.0 / 240.0)
        spec.faults.scripted.append(ScriptedFaultSpec(kind="epoch_kill", at_s=150.0))
        store = InMemoryRecordStore()
        result = run_scenario(spec, store=store)
        assert result.to_json() == run_scenario(spec).to_json()
        kills = result.epoch_kills()
        assert [(name, kill["dead_epoch"]) for name, kill in kills] == [
            ("shard0", 1),
            ("shard0", 3),
            ("shard1", 2),
            ("shard1", 4),
        ]
        assert all(store.ledger_balance(k["dead_epoch"])["balanced"] for _, k in kills)
        # The second kill re-adopts what the first successor re-adopted
        # and was still running; the rest left at their ends.
        by_dead = {kill["dead_epoch"]: kill for _, kill in kills}
        kept, left = set(), set()
        for first, second in ((by_dead[1], by_dead[3]), (by_dead[2], by_dead[4])):
            carried = {entry["session_id"] for entry in first["sessions"]}
            recarried = {entry["session_id"] for entry in second["sessions"]}
            for session_id in carried:
                record = store.session(session_id)
                if session_id in recarried:
                    assert record.ends_s > 150.0
                    assert record.epoch == second["epoch"]
                else:
                    assert record.ends_s < 150.0
                    assert record.epoch == first["epoch"]
                    assert record.status == SessionStatus.RELEASED
            kept |= carried & recarried
            left |= carried - recarried
        assert kept and left


class TestKilledQueue:
    def test_queued_requests_die_as_failed(self, monkeypatch):
        depths = []
        kill = runner._Domain.kill

        def spy(domain):
            depths.append(domain.target.queue.depth)
            kill(domain)

        monkeypatch.setattr(runner._Domain, "kill", spy)
        spec = load_catalog_scenario("conference_crash")
        result = run_scenario(spec, multiplier=20.0)
        assert depths and depths[0] > 0
        assert result.submitted == result.admitted + result.shed + result.failed


class TestGrammar:
    def test_epoch_kill_names_no_device(self):
        document = conference().to_dict()
        document["faults"] = {
            "scripted": [{"kind": "epoch_kill", "at_s": 10.0, "target": "podium"}]
        }
        with pytest.raises(ScenarioValidationError) as excinfo:
            ScenarioSpec.from_dict(document)
        assert excinfo.value.path == "faults.scripted[0].target"

    def test_device_faults_still_need_a_target(self):
        document = conference().to_dict()
        document["faults"] = {"scripted": [{"kind": "device_crash", "at_s": 1.0}]}
        with pytest.raises(ScenarioValidationError, match="required key"):
            ScenarioSpec.from_dict(document)
