"""The unified registry, and byte-compatibility of the metrics facades."""

import json

import pytest

from repro.faults.metrics import RecoveryMetrics
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    stable_round,
)
from repro.server.metrics import ServerMetrics


class TestInstruments:
    def test_counter(self):
        counter = Counter("c")
        counter.incr()
        counter.incr(4)
        assert counter.value == 5

    def test_gauge_last_write_wins(self):
        gauge = Gauge("g")
        gauge.set(1.5)
        gauge.set(2.5)
        assert gauge.value == 2.5

    def test_histogram_nearest_rank(self):
        histogram = Histogram("h")
        for value in (10.0, 20.0, 30.0, 40.0):
            histogram.record(value)
        assert histogram.percentile(50) == 20.0
        assert histogram.percentile(75) == 30.0
        assert histogram.percentile(100) == 40.0
        assert histogram.percentile(1) == 10.0

    def test_histogram_empty(self):
        histogram = Histogram("h")
        assert histogram.percentile(99) == 0.0
        assert histogram.summary() == {"count": 0}

    def test_histogram_rejects_bad_percentile(self):
        histogram = Histogram("h")
        histogram.record(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(0)
        with pytest.raises(ValueError):
            histogram.percentile(101)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_names_sorted_across_kinds(self):
        registry = MetricsRegistry()
        registry.histogram("z.lat")
        registry.counter("a.count")
        registry.gauge("m.depth")
        assert registry.names() == ["a.count", "m.depth", "z.lat"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("hits").incr(3)
        registry.gauge("depth").set(1.23456789)
        registry.histogram("lat").record(5.0)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"hits": 3}
        assert snapshot["gauges"] == {"depth": stable_round(1.23456789)}
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_to_json_deterministic_with_extra(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("n").incr()
            return registry.to_json(extra={"seed": 42})

        assert build() == build()
        payload = json.loads(build())
        assert payload["seed"] == 42

    def test_export_ndjson_one_line_per_instrument(self):
        registry = MetricsRegistry()
        registry.counter("hits").incr(2)
        registry.gauge("depth").set(3.0)
        registry.histogram("lat").record(7.0)
        lines = [json.loads(l) for l in registry.export_ndjson().splitlines()]
        assert [(l["kind"], l["name"]) for l in lines] == [
            ("counter", "hits"),
            ("gauge", "depth"),
            ("histogram", "lat"),
        ]
        assert lines[0]["value"] == 2
        assert lines[2]["value"]["count"] == 1

    def test_empty_registry_exports(self):
        registry = MetricsRegistry()
        assert registry.export_ndjson() == ""
        assert json.loads(registry.to_json()) == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestFacadesOverRegistry:
    def test_server_metrics_namespaces_instruments(self):
        registry = MetricsRegistry()
        metrics = ServerMetrics(registry=registry)
        metrics.incr("admitted")
        metrics.record("total_ms", 12.0)
        assert "server.admitted" in registry.names()
        assert "server.total_ms" in registry.names()
        assert registry.counter("server.admitted").value == 1

    def test_recovery_metrics_namespaces_instruments(self):
        registry = MetricsRegistry()
        metrics = RecoveryMetrics(registry=registry)
        metrics.incr("recoveries")
        metrics.record("mttr_ms", 100.0)
        assert "recovery.recoveries" in registry.names()
        assert "recovery.mttr_ms" in registry.names()

    def test_both_facades_share_one_registry(self):
        registry = MetricsRegistry()
        server = ServerMetrics(registry=registry)
        recovery = RecoveryMetrics(registry=registry)
        server.incr("admitted")
        recovery.incr("suspicions")
        names = registry.names()
        assert any(name.startswith("server.") for name in names)
        assert any(name.startswith("recovery.") for name in names)
        # Unified export covers both subsystems in one pass.
        exported = registry.export_ndjson()
        assert "server.admitted" in exported
        assert "recovery.suspicions" in exported

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            ServerMetrics().incr("nope")
        with pytest.raises(KeyError):
            RecoveryMetrics().record("nope", 1.0)


class TestGoldenJsonCompatibility:
    """The facades must keep the pre-registry JSON bytes exactly.

    The expected strings were generated by the original standalone
    ``ServerMetrics``/``RecoveryMetrics`` implementations with the same
    sequence of updates.
    """

    def test_server_metrics_to_json_bytes(self):
        metrics = ServerMetrics()
        metrics.incr("submitted", 5)
        metrics.incr("admitted", 3)
        metrics.incr("admitted_degraded")
        metrics.incr("shed_overload")
        metrics.incr("failed")
        metrics.record("queue_wait_ms", 1.5)
        metrics.record("queue_wait_ms", 2.5)
        metrics.record("total_ms", 10.0)
        metrics.record("total_ms", 30.0)
        metrics.record("total_ms", 20.0)
        expected = (
            '{"counters":{"admitted":3,"admitted_degraded":1,'
            '"conflict_retries":0,"failed":1,"shed_deadline":0,'
            '"shed_overload":1,"shed_queue_full":0,"submitted":5},'
            '"derived":{"admit_rate":0.6,"degraded_rate":0.2,"shed_rate":0.2},'
            '"latency":{"composition_ms":{"count":0},'
            '"deployment_ms":{"count":0},"distribution_ms":{"count":0},'
            '"queue_wait_ms":{"count":2,"max":2.5,"mean":2.0,"p50":1.5,'
            '"p90":2.5,"p99":2.5},'
            '"total_ms":{"count":3,"max":30.0,"mean":20.0,"p50":20.0,'
            '"p90":30.0,"p99":30.0}},'
            '"multiplier":2.0,"seed":7}'
        )
        assert metrics.to_json(extra={"multiplier": 2.0, "seed": 7}) == expected

    def test_recovery_metrics_to_json_bytes(self):
        metrics = RecoveryMetrics()
        metrics.incr("faults_injected", 4)
        metrics.incr("crash_faults", 2)
        metrics.incr("suspicions", 2)
        metrics.incr("sessions_affected", 2)
        metrics.incr("recoveries", 1)
        metrics.incr("recoveries_degraded", 1)
        metrics.incr("recovery_failures", 1)
        metrics.incr("false_suspicions")
        metrics.record("detection_ms", 6000.0)
        metrics.record("mttr_ms", 1234.5)
        metrics.record("mttr_ms", 2000.25)
        expected = (
            '{"counters":{"crash_faults":2,"departure_faults":0,'
            '"false_suspicions":1,"faults_injected":4,"heartbeats":0,'
            '"link_faults":0,"pressure_faults":0,"recoveries":1,'
            '"recoveries_degraded":1,"recovery_attempts":0,'
            '"recovery_failures":1,"sessions_affected":2,"suspicions":2,'
            '"verdicts":0},'
            '"derived":{"degraded_recovery_rate":0.5,'
            '"false_suspicion_rate":0.5,"recovery_success_rate":0.5},'
            '"fault_multiplier":1.0,'
            '"latency":{"detection_ms":{"count":1,"max":6000.0,'
            '"mean":6000.0,"p50":6000.0,"p90":6000.0,"p99":6000.0},'
            '"interruption_ms":{"count":0},'
            '"mttr_ms":{"count":2,"max":2000.25,"mean":1617.375,'
            '"p50":1234.5,"p90":2000.25,"p99":2000.25}}}'
        )
        assert metrics.to_json(extra={"fault_multiplier": 1.0}) == expected


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestWindowedViews:
    def test_windowed_returns_only_the_trailing_horizon(self):
        clock = _FakeClock()
        registry = MetricsRegistry(clock=clock)
        histogram = registry.histogram("latency_ms")
        for t, value in ((0.0, 10.0), (5.0, 20.0), (9.0, 30.0)):
            clock.now = t
            histogram.record(value)
        clock.now = 10.0
        assert registry.windowed("latency_ms", 5.0) == [20.0, 30.0]
        assert registry.windowed("latency_ms", 100.0) == [10.0, 20.0, 30.0]
        assert registry.windowed("latency_ms", 0.5) == []

    def test_windowed_cutoff_is_inclusive(self):
        clock = _FakeClock()
        registry = MetricsRegistry(clock=clock)
        clock.now = 4.0
        registry.histogram("h").record(1.0)
        clock.now = 9.0
        assert registry.windowed("h", 5.0) == [1.0]

    def test_unknown_name_is_an_empty_window(self):
        registry = MetricsRegistry(clock=_FakeClock())
        assert registry.windowed("never.recorded", 10.0) == []

    def test_clockless_registry_rejects_windowed_views(self):
        registry = MetricsRegistry()
        registry.histogram("h").record(1.0)
        with pytest.raises(ValueError):
            registry.windowed("h", 10.0)
        with pytest.raises(ValueError):
            registry.histogram("h").samples_since(0.0)

    def test_negative_horizon_rejected(self):
        registry = MetricsRegistry(clock=_FakeClock())
        with pytest.raises(ValueError):
            registry.windowed("h", -1.0)

    def test_gauge_records_write_time_when_clocked(self):
        clock = _FakeClock()
        registry = MetricsRegistry(clock=clock)
        gauge = registry.gauge("g")
        assert gauge.updated_at_s is None
        clock.now = 7.0
        gauge.set(3.0)
        assert gauge.updated_at_s == 7.0


class TestHistogramMemoryGuard:
    def test_oldest_samples_evicted_first(self):
        histogram = Histogram("h", max_samples=3)
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            histogram.record(value)
        assert histogram.samples() == [3.0, 4.0, 5.0]
        assert histogram.count == 3
        assert histogram.dropped == 2

    def test_unbounded_histogram_never_drops(self):
        histogram = Histogram("h")
        for value in range(100):
            histogram.record(float(value))
        assert histogram.dropped == 0
        assert histogram.count == 100

    def test_guard_keeps_the_time_axis_aligned(self):
        clock = _FakeClock()
        registry = MetricsRegistry(clock=clock, max_histogram_samples=2)
        histogram = registry.histogram("h")
        for t in range(5):
            clock.now = float(t)
            histogram.record(10.0 * t)
        clock.now = 5.0
        # Only the two newest samples survive, and the windowed view
        # still maps each to its own record time.
        assert registry.windowed("h", 10.0) == [30.0, 40.0]
        assert registry.windowed("h", 1.5) == [40.0]
        assert histogram.dropped == 3

    def test_max_samples_validated(self):
        with pytest.raises(ValueError):
            Histogram("h", max_samples=0)
