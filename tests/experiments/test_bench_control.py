"""Control bench: gate logic, replay determinism, the committed artifact."""

import json
from dataclasses import replace

import pytest

from repro.experiments.bench_control import (
    load_baseline,
    run_control_bench,
    verify_payload,
)
from repro.scenarios import load_catalog_scenario, run_scenario
from tests.conftest import audio_lab_point

HORIZON_S = 120.0


def cluster_cell(reactive=0.8, controlled=0.7):
    return {
        "multiplier": 10.0,
        "reactive_shed_rate": reactive,
        "controlled_shed_rate": controlled,
        "shed_rate_delta": controlled - reactive,
        "reactive_admitted": 38,
        "controlled_admitted": 53,
        "reactive_denied": 551,
        "controlled_denied": 536,
        "control_forecasts": 10,
        "control_actuations": 1,
        "control_reverts": 0,
        "control_rebalanced": 2,
    }


def chaos_cell(
    reactive_repair=5000.0,
    controlled_repair=3000.0,
    reactive_interruption=77.0,
    controlled_interruption=66.0,
):
    return {
        "fault_multiplier": 2.0,
        "reactive_repair_ms": reactive_repair,
        "controlled_repair_ms": controlled_repair,
        "reactive_interruption_ms": reactive_interruption,
        "controlled_interruption_ms": controlled_interruption,
        "reactive_affected": 3,
        "controlled_affected": 2,
        "control_evacuations": 2,
        "control_sessions_moved": 2,
        "control_evacuation_reverts": 2,
    }


def payload(cluster=None, chaos=None):
    return {
        "benchmark": "control_plane",
        "cluster": cluster if cluster is not None else [cluster_cell()],
        "chaos": chaos if chaos is not None else [chaos_cell()],
    }


class TestGate:
    def test_winning_artifact_passes(self):
        assert verify_payload(payload()) == []

    def test_one_winning_multiplier_is_enough(self):
        # A tie elsewhere is fine; a regression elsewhere is not (below).
        cells = [cluster_cell(reactive=0.4, controlled=0.4), cluster_cell()]
        assert verify_payload(payload(cluster=cells)) == []

    def test_a_regression_anywhere_fails_despite_a_win(self):
        cells = [cluster_cell(reactive=0.3, controlled=0.4), cluster_cell()]
        problems = verify_payload(payload(cluster=cells))
        assert any("regresses reactive" in problem for problem in problems)

    def test_no_shed_win_anywhere_fails(self):
        cells = [cluster_cell(reactive=0.3, controlled=0.4)]
        problems = verify_payload(payload(cluster=cells))
        assert any("shed rate" in problem for problem in problems)

    def test_empty_legs_fail(self):
        problems = verify_payload(payload(cluster=[], chaos=[]))
        assert len(problems) == 2

    def test_interruption_win_also_satisfies_the_chaos_leg(self):
        cells = [
            chaos_cell(
                controlled_repair=0.0,  # nothing evacuated in time...
                reactive_interruption=77.0,
                controlled_interruption=66.0,  # ...but handoffs got cheaper
            )
        ]
        assert verify_payload(payload(chaos=cells)) == []

    def test_no_chaos_improvement_fails(self):
        cells = [
            chaos_cell(
                controlled_repair=6000.0, controlled_interruption=80.0
            )
        ]
        problems = verify_payload(payload(chaos=cells))
        assert any("neither" in problem for problem in problems)

    def test_quiet_storms_cannot_fake_a_win(self):
        # A cell with no reactive repairs carries no evidence either way;
        # if every cell is quiet the gate must say so rather than pass.
        cells = [chaos_cell(reactive_repair=0.0, controlled_repair=0.0)]
        problems = verify_payload(payload(chaos=cells))
        assert any("no chaos cell" in problem for problem in problems)

    def test_load_baseline_missing_file_is_none(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) is None
        target = tmp_path / "bench.json"
        target.write_text(json.dumps(payload()))
        assert load_baseline(str(target)) == payload()


class TestCommittedArtifact:
    def test_bench_control_json_still_holds(self):
        committed = load_baseline("BENCH_control.json")
        assert committed is not None, "BENCH_control.json must be committed"
        assert committed["benchmark"] == "control_plane"
        assert verify_payload(committed) == []

    def test_artifact_matches_the_bench_config(self):
        committed = load_baseline("BENCH_control.json")
        config = committed["config"]
        assert config["seed"] == 42
        assert config["quick"] is False
        assert len(committed["cluster"]) >= 1
        assert len(committed["chaos"]) >= 1


class TestControlledReplayDeterminism:
    """Satellite contract: control.* spans are part of the replay."""

    @pytest.fixture(scope="class")
    def controlled_point(self):
        return audio_lab_point(
            2,
            10.0,
            seed=42,
            horizon_s=HORIZON_S,
            router="least-loaded",
            trace=True,
            controlled=True,
        )

    def test_controlled_cluster_replay_is_byte_identical(
        self, controlled_point
    ):
        replay = audio_lab_point(
            2,
            10.0,
            seed=42,
            horizon_s=HORIZON_S,
            router="least-loaded",
            trace=True,
            controlled=True,
        )
        assert replay.metrics_json == controlled_point.metrics_json
        assert replay.trace_ndjson == controlled_point.trace_ndjson

    def test_control_spans_present_in_the_trace(self, controlled_point):
        spans = [
            json.loads(line)
            for line in controlled_point.trace_ndjson.splitlines()
        ]
        names = {span["name"] for span in spans}
        assert "control.actuate" in names
        actuations = [
            span for span in spans if span["name"] == "control.actuate"
        ]
        assert all(
            "horizon_s" in span["attributes"]
            and "confidence" in span["attributes"]
            for span in actuations
        )

    def test_controller_counters_land_in_the_point(self, controlled_point):
        assert controlled_point.controlled
        assert controlled_point.control_forecasts > 0
        assert controlled_point.control_actuations > 0

    def test_controlled_chaos_replay_is_deterministic(self):
        storm = load_catalog_scenario("audio_storm")
        storm = replace(
            storm, arrivals=replace(storm.arrivals, horizon_s=HORIZON_S)
        )
        first = run_scenario(storm, multiplier=2.0, controlled=True)
        second = run_scenario(storm, multiplier=2.0, controlled=True)
        assert first.to_json() == second.to_json()
        assert first.controlled


class TestQuickBench:
    @pytest.fixture(scope="class")
    def result(self):
        return run_control_bench(quick=True, seed=42)

    def test_quick_bench_passes_its_own_gate(self, result):
        assert verify_payload(json.loads(result.to_json())) == []

    def test_table_and_json_render(self, result):
        table = result.format_table()
        assert "controlled vs reactive" in table
        payload = json.loads(result.to_json())
        assert payload["config"]["quick"] is True
        assert [cell["multiplier"] for cell in payload["cluster"]] == [8.0, 10.0]
        assert payload["chaos"][0]["fault_multiplier"] == 2.0
