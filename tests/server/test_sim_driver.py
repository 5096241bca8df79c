"""Deterministic replay and graceful overload through the sim driver."""

import json

import pytest

from repro.apps.audio_on_demand import (
    audio_degradation_ladder,
    audio_request,
    build_audio_testbed,
)
from repro.server.drivers import SimulatedServerDriver
from repro.server.service import DomainConfigurationService, ServerRequest
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import arrival_trace
from tests.conftest import audio_lab_point, audio_lab_sweep


def replay(seed: int = 9, multiplier: float = 1.5) -> str:
    """One full trace replay; returns the metrics JSON."""
    return audio_lab_point(
        1, multiplier, seed=seed, horizon_s=180.0
    ).metrics_json


class TestDeterminism:
    def test_same_seed_byte_identical_metrics(self):
        assert replay() == replay()

    def test_different_seed_differs(self):
        assert replay(seed=9) != replay(seed=10)

    def test_sweep_json_deterministic(self):
        kwargs = dict(multipliers=(1.0, 2.0), seed=5, horizon_s=120.0)
        assert (
            audio_lab_sweep(**kwargs).to_json()
            == audio_lab_sweep(**kwargs).to_json()
        )

    def test_queue_wait_measured_in_logical_time(self):
        testbed = build_audio_testbed()
        simulator = Simulator()
        service = DomainConfigurationService(
            testbed.configurator,
            ladder=audio_degradation_ladder(),
            clock=SimulatedServerDriver.clock(simulator),
            skip_downloads=True,
        )
        driver = SimulatedServerDriver(
            service, simulator, workers=1, min_service_s=2.0
        )
        # Two arrivals 0.5s apart: the second waits for the first worker
        # slot, so its queue wait is 2.0 - 0.5 = 1.5 logical seconds.
        for index, at in enumerate((1.0, 1.5)):
            simulator.schedule_at(
                at,
                lambda i=index: driver.arrive(
                    ServerRequest(
                        request_id=f"r{i}",
                        composition=audio_request(testbed, "desktop1"),
                    )
                ),
            )
        driver.run()
        waits = sorted(service.metrics.stage("queue_wait_ms").iter_samples())
        assert waits[0] == pytest.approx(0.0)
        assert waits[1] == pytest.approx(1500.0)


class TestGracefulOverload:
    def test_two_x_saturating_load_degrades_not_raises(self):
        point = audio_lab_point(1, 2.0, seed=42, horizon_s=300.0)
        assert point.submitted > 0
        # Every request got a disposition; nothing vanished or raised.
        assert (
            point.admitted + point.failed + point.shed == point.submitted
        )
        # The surplus is absorbed by degradation/failure, and the server
        # still admits a healthy stream of sessions.
        assert point.admitted > 0
        assert point.degraded > 0
        payload = json.loads(point.metrics_json)
        assert payload["multiplier"] == 2.0
        assert "shed_rate" in payload["derived"]

    def test_throughput_saturates_as_load_grows(self):
        sweep = audio_lab_sweep(
            multipliers=(0.5, 2.0, 5.0), seed=42, horizon_s=300.0
        )
        low, mid, high = sweep.points
        # Offered load grows 10x; admitted throughput must not.
        assert high.throughput_per_min < 4.0 * low.throughput_per_min
        # Extreme overload sheds at the front door.
        assert high.shed > 0
        assert high.shed_rate > 0.2

    def test_sweep_json_records_throughput_and_shed_per_multiplier(self):
        sweep = audio_lab_sweep(
            multipliers=(1.0, 2.0), seed=7, horizon_s=120.0
        )
        payload = json.loads(sweep.to_json())
        assert [p["multiplier"] for p in payload["points"]] == [1.0, 2.0]
        for point in payload["points"]:
            assert "throughput_per_min" in point
            assert "shed_rate" in point
            assert point["metrics"]["counters"]["submitted"] == point["submitted"]

    def test_admitted_sessions_release_on_departure(self):
        # After the horizon, every admitted session's departure has fired
        # (bounded durations), so the domain must drain back to zero.
        testbed = build_audio_testbed()
        simulator = Simulator()
        service = DomainConfigurationService(
            testbed.configurator,
            ladder=audio_degradation_ladder(),
            clock=SimulatedServerDriver.clock(simulator),
            skip_downloads=True,
        )
        driver = SimulatedServerDriver(service, simulator, workers=2)
        trace = arrival_trace(
            seed=3,
            rate_per_s=0.2,
            horizon_s=60.0,
            mean_duration_s=10.0,
            duration_bounds_s=(1.0, 20.0),
        )
        driver.schedule_trace(
            trace,
            lambda e: ServerRequest(
                request_id=f"r{e.request_id}",
                composition=audio_request(testbed, "desktop2"),
                duration_s=e.duration_s,
            ),
        )
        driver.run()
        assert service.ledger.audit() == []
        for device in testbed.devices.values():
            assert device.allocated.is_zero()

    def test_invalid_multiplier_rejected(self):
        with pytest.raises(ValueError):
            audio_lab_point(1, 0.0)
