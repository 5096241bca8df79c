"""Determinism and scaling tests for the ``audio_lab`` scenario swept
over shard counts (the cluster sweep)."""

import json

import pytest

from tests.conftest import audio_lab_point, audio_lab_sweep

HORIZON_S = 120.0


class TestDeterminism:
    def test_sim_metrics_json_is_byte_identical_across_replays(self):
        first = audio_lab_point(2, 2.0, seed=11, horizon_s=HORIZON_S)
        second = audio_lab_point(2, 2.0, seed=11, horizon_s=HORIZON_S)
        assert first.metrics_json == second.metrics_json
        assert first.as_dict() == second.as_dict()

    def test_sim_trace_ndjson_is_byte_identical_across_replays(self):
        first = audio_lab_point(
            2, 2.0, seed=11, horizon_s=HORIZON_S, trace=True
        )
        second = audio_lab_point(
            2, 2.0, seed=11, horizon_s=HORIZON_S, trace=True
        )
        assert first.trace_ndjson
        assert first.trace_ndjson == second.trace_ndjson
        names = {
            json.loads(line)["name"]
            for line in first.trace_ndjson.splitlines()
        }
        assert "run.scenario" in names
        assert "cluster.route" in names

    def test_sweep_to_json_is_byte_identical_across_replays(self):
        kwargs = dict(
            multipliers=(2.0,), shards=(1, 2), seed=11, horizon_s=HORIZON_S
        )
        assert (
            audio_lab_sweep(**kwargs).to_json()
            == audio_lab_sweep(**kwargs).to_json()
        )

    def test_different_seeds_differ(self):
        first = audio_lab_point(2, 2.0, seed=11, horizon_s=HORIZON_S)
        second = audio_lab_point(2, 2.0, seed=12, horizon_s=HORIZON_S)
        assert first.metrics_json != second.metrics_json


class TestScaling:
    def test_more_shards_shed_less_at_the_same_offered_load(self):
        one = audio_lab_point(1, 6.0, seed=42, horizon_s=HORIZON_S)
        two = audio_lab_point(2, 6.0, seed=42, horizon_s=HORIZON_S)
        assert one.submitted == two.submitted  # same arrival trace
        assert one.shed_rate > 0.0
        assert two.shed_rate < one.shed_rate
        assert two.admitted > one.admitted

    def test_overflow_rescues_under_imbalance(self):
        point = audio_lab_point(2, 10.0, seed=42, horizon_s=HORIZON_S)
        routing = json.loads(point.metrics_json)["routing"]
        assert routing["overflow_attempts"] > 0
        assert routing["overflow_rescued"] > 0

    def test_dispositions_partition_submissions(self):
        for shards in (1, 2):
            point = audio_lab_point(shards, 6.0, seed=42, horizon_s=HORIZON_S)
            assert (
                point.admitted + point.failed + point.shed
                == point.submitted
            )

    def test_ledgers_stay_clean(self):
        # The run raises AssertionError on any audit problem.
        audio_lab_point(4, 10.0, seed=42, horizon_s=HORIZON_S)


class TestPlumbing:
    def test_point_lookup_and_table(self):
        result = audio_lab_sweep(
            (2.0,), shards=(1, 2), seed=11, horizon_s=HORIZON_S
        )
        assert result.point(2.0, 2).shards == 2
        with pytest.raises(KeyError):
            result.point(2.0, 8)
        table = result.format_table()
        assert "shards" in table and "shed%" in table

    def test_least_loaded_router_also_deterministic(self):
        first = audio_lab_point(
            2, 6.0, seed=11, horizon_s=HORIZON_S, router="least-loaded"
        )
        second = audio_lab_point(
            2, 6.0, seed=11, horizon_s=HORIZON_S, router="least-loaded"
        )
        assert first.metrics_json == second.metrics_json

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            audio_lab_point(0, 1.0)
        with pytest.raises(ValueError):
            audio_lab_point(1, 0.0)
