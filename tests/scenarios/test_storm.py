"""The ``audio_storm`` document: lab sessions held through a fault storm."""

import json
from dataclasses import replace

import pytest

from repro.observability.report import TraceReport
from repro.scenarios import (
    ScenarioSpec,
    load_catalog_scenario,
    run_scenario,
    run_sweep,
)

HORIZON_S = 240.0


def storm(seed: int = 42, horizon_s: float = HORIZON_S) -> ScenarioSpec:
    spec = load_catalog_scenario("audio_storm")
    return replace(
        spec, seed=seed, arrivals=replace(spec.arrivals, horizon_s=horizon_s)
    )


def counters(result):
    return result.recovery["counters"]


@pytest.fixture(scope="module")
def point():
    return run_scenario(storm())


class TestDeterminism:
    def test_same_seed_byte_identical(self, point):
        replay = run_scenario(storm())
        assert replay.to_json() == point.to_json()

    def test_different_seed_different_storm(self, point):
        other = run_scenario(storm(seed=43))
        assert other.recovery != point.recovery

    def test_result_carries_one_recovery_block(self, point):
        payload = json.loads(point.to_json())
        assert payload["faulted"] is True
        assert payload["submitted"] == 0
        block = payload["recovery"]
        assert sorted(block) == ["counters", "gauges", "histograms", "reports"]
        assert block["counters"]["recovery.faults_injected"] == (
            point.faults_injected
        )


class TestRecoveryAccounting:
    def test_every_affected_session_is_resolved(self, point):
        affected = counters(point)["recovery.sessions_affected"]
        assert affected == point.recoveries + point.recovery_failures
        assert len(point.recovery["reports"]) == affected

    def test_non_trivial_recovery_happened(self, point):
        # The seed-42 storm crashes the transcoder host: at least one
        # session must actually heal (not merely fail cleanly).
        assert counters(point)["recovery.crash_faults"] >= 1
        assert point.recoveries >= 1
        recovered = [r for r in point.recovery["reports"] if r["recovered"]]
        assert recovered and all(r["mttr_ms"] > 0 for r in recovered)

    def test_failures_carry_reasons(self, point):
        for report in point.recovery["reports"]:
            if not report["recovered"]:
                assert report["reason"]

    def test_detection_count_equals_crash_count(self, point):
        detection = point.recovery["histograms"]["recovery.detection_ms"]
        assert detection["count"] == counters(point)["recovery.crash_faults"]
        assert detection["mean"] > 0


class TestMultiplier:
    @pytest.fixture(scope="class")
    def sweep(self):
        return run_sweep(storm(horizon_s=300.0), (0.5, 1.0, 2.0, 4.0))

    def test_storm_grows_with_the_multiplier(self, sweep):
        injected = [p.faults_injected for p in sweep.points]
        assert injected == sorted(injected)
        assert injected[-1] > injected[0]

    def test_seed_42_sweep(self, sweep):
        # The fault counts, recoveries and repair times of the seed-42
        # storm over 300 s at x0.5, x1, x2 and x4.
        assert [
            (p.faults_injected, p.recoveries, p.recovery_failures)
            for p in sweep.points
        ] == [(4, 0, 0), (7, 1, 2), (8, 1, 2), (17, 1, 2)]
        assert [p.mean_mttr_ms() for p in sweep.points] == [
            0.0,
            100.0,
            100.0,
            100.0,
        ]

    def test_every_crash_verdict_resolved_across_the_sweep(self, sweep):
        for point in sweep.points:
            affected = counters(point)["recovery.sessions_affected"]
            assert affected == point.recoveries + point.recovery_failures
            for report in point.recovery["reports"]:
                if not report["recovered"]:
                    assert report["reason"], "failure reports must say why"
        assert sum(p.recoveries for p in sweep.points) >= 1

    def test_table_reports_recovery(self, sweep):
        table = sweep.format_table()
        assert "recovered" in table and "MTTR ms" in table


class TestSessions:
    def test_sessions_hold_without_faults(self):
        spec = replace(storm(horizon_s=60.0), faults=None)
        result = run_scenario(spec)
        assert not result.faulted
        assert "recovery" not in result.as_dict()

    def test_session_that_does_not_admit_raises(self):
        spec = storm(horizon_s=60.0)
        jornada = replace(
            spec.devices["jornada"], capacity={"memory": 1.0, "cpu": 0.01}
        )
        spec = replace(spec, devices={**spec.devices, "jornada": jornada})
        with pytest.raises(AssertionError, match="'jornada' did not admit"):
            run_scenario(spec)

    def test_sessions_require_the_sim_driver(self):
        spec = replace(storm(horizon_s=60.0), faults=None)
        with pytest.raises(ValueError, match="sim driver"):
            run_scenario(spec, driver="thread")

    def test_controlled_storm_evacuates(self):
        result = run_scenario(
            storm(horizon_s=120.0), multiplier=2.0, controlled=True
        )
        assert result.controlled
        assert counters(result)["control.evacuations"] >= 1
        histograms = result.recovery["histograms"]
        assert histograms["control.time_to_repair_ms"]["mean"] > 0


class TestTracing:
    def test_trace_is_byte_identical_per_seed(self):
        first = run_scenario(storm(), multiplier=4.0, trace=True)
        second = run_scenario(storm(), multiplier=4.0, trace=True)
        assert first.trace_ndjson
        assert first.trace_ndjson == second.trace_ndjson
        assert first.to_json() == second.to_json()

    def test_trace_is_one_tree_covering_recovery(self):
        point = run_scenario(storm(), multiplier=4.0, trace=True)
        report = TraceReport.from_ndjson(point.trace_ndjson)
        assert len(report.roots) == 1
        assert report.roots[0].name == "run.scenario"
        assert report.trace_count == 1
        names = {span.name for span in report.spans}
        assert {
            "configure",
            "composition.compose",
            "distribution.search",
            "deployment.deploy",
            "recovery.episode",
            "recovery.attempt",
        } <= names
        episodes = [
            span for span in report.spans if span.name == "recovery.episode"
        ]
        attempts = [
            span for span in report.spans if span.name == "recovery.attempt"
        ]
        episode_ids = {span.span_id for span in episodes}
        assert all(span.parent_id in episode_ids for span in attempts)

    def test_tracing_does_not_perturb_the_golden_json(self):
        spec = storm(horizon_s=120.0)
        plain = run_scenario(spec)
        traced = run_scenario(spec, trace=True)
        assert plain.trace_ndjson == ""
        assert traced.trace_ndjson != ""
        assert plain.to_json() == traced.to_json()

    def test_trace_lines_are_canonical_json(self):
        point = run_scenario(storm(horizon_s=120.0), trace=True)
        for line in point.trace_ndjson.splitlines():
            assert line == json.dumps(
                json.loads(line), sort_keys=True, separators=(",", ":")
            )
