"""Unit tests for the server metrics surface."""

import json

import pytest

from repro.observability.metrics import Histogram
from repro.server.metrics import ServerMetrics


class TestHistogram:
    def test_nearest_rank_percentiles(self):
        recorder = Histogram()
        for value in range(1, 101):
            recorder.record(float(value))
        assert recorder.percentile(50) == 50.0
        assert recorder.percentile(90) == 90.0
        assert recorder.percentile(99) == 99.0
        assert recorder.percentile(100) == 100.0

    def test_single_sample(self):
        recorder = Histogram()
        recorder.record(7.0)
        assert recorder.percentile(1) == 7.0
        assert recorder.percentile(99) == 7.0

    def test_empty_percentile_is_zero(self):
        assert Histogram().percentile(50) == 0.0

    def test_invalid_percentile_rejected(self):
        recorder = Histogram()
        recorder.record(1.0)
        with pytest.raises(ValueError):
            recorder.percentile(0)
        with pytest.raises(ValueError):
            recorder.percentile(101)

    def test_summary_shape(self):
        recorder = Histogram()
        recorder.record(10.0)
        recorder.record(20.0)
        summary = recorder.summary()
        assert summary["count"] == 2
        assert summary["mean"] == pytest.approx(15.0)
        assert summary["max"] == pytest.approx(20.0)

    def test_empty_summary(self):
        assert Histogram().summary() == {"count": 0}


class TestServerMetrics:
    def test_counters(self):
        metrics = ServerMetrics()
        metrics.incr("submitted")
        metrics.incr("submitted")
        metrics.incr("admitted")
        assert metrics.count("submitted") == 2
        assert metrics.count("admitted") == 1

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServerMetrics().incr("nope")

    def test_unknown_stage_rejected(self):
        with pytest.raises(KeyError):
            ServerMetrics().record("nope", 1.0)

    def test_shed_total_sums_all_shed_kinds(self):
        metrics = ServerMetrics()
        metrics.incr("shed_queue_full")
        metrics.incr("shed_overload", 2)
        metrics.incr("shed_deadline")
        assert metrics.shed_total == 4

    def test_derived_rates(self):
        metrics = ServerMetrics()
        for _ in range(10):
            metrics.incr("submitted")
        for _ in range(6):
            metrics.incr("admitted")
        metrics.incr("admitted_degraded", 2)
        metrics.incr("shed_overload", 3)
        snapshot = metrics.snapshot()
        assert snapshot["derived"]["admit_rate"] == pytest.approx(0.6)
        assert snapshot["derived"]["shed_rate"] == pytest.approx(0.3)
        assert snapshot["derived"]["degraded_rate"] == pytest.approx(0.2)

    def test_json_is_deterministic(self):
        def build():
            metrics = ServerMetrics()
            metrics.incr("submitted", 3)
            metrics.incr("admitted", 2)
            metrics.record("queue_wait_ms", 1.23456789)
            metrics.record("total_ms", 45.6)
            return metrics.to_json(extra={"run": "x"})

        assert build() == build()

    def test_json_parses_and_carries_extra(self):
        metrics = ServerMetrics()
        metrics.incr("submitted")
        payload = json.loads(metrics.to_json(extra={"multiplier": 2.0}))
        assert payload["multiplier"] == 2.0
        assert payload["counters"]["submitted"] == 1
        assert set(payload) == {"counters", "derived", "latency", "multiplier"}
