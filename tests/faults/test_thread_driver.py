"""The same fault pipeline on wall-clock threads (no sim kernel).

These tests use real ``threading.Timer`` scheduling with compressed
intervals, so they take a little real time (~1s each) but prove the
injector → detector → recovery loop is driver-agnostic.
"""

import time

import pytest

from repro.apps.audio_on_demand import (
    audio_degradation_ladder,
    audio_request,
    build_audio_testbed,
)
from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector
from repro.faults.metrics import RecoveryMetrics
from repro.faults.model import FaultKind, FaultSchedule, FaultSpec
from repro.faults.recovery import RecoveryManager, RecoveryPolicy
from repro.runtime.clock import WallClockScheduler
from repro.runtime.session import SessionState


def _wait_until(predicate, timeout_s=5.0, poll_s=0.02):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(poll_s)
    return predicate()


@pytest.fixture
def harness():
    scheduler = WallClockScheduler()
    testbed = build_audio_testbed(clock=scheduler.clock())
    ledger = testbed.configurator.ledger
    metrics = RecoveryMetrics()
    injector = FaultInjector(testbed.server, scheduler, metrics=metrics)
    detector = FailureDetector(
        testbed.server,
        scheduler,
        heartbeat_interval_s=0.05,
        suspicion_threshold=3.0,
        metrics=metrics,
    )
    manager = RecoveryManager(
        testbed.configurator,
        scheduler,
        ladder=audio_degradation_ladder(),
        policy=RecoveryPolicy(max_attempts=3, backoff_base_s=0.05,
                              max_backoff_s=0.2),
        metrics=metrics,
    )
    yield testbed, scheduler, ledger, injector, detector, manager
    detector.stop()
    manager.close()
    injector.disarm()
    scheduler.close()


class TestWallClockRecovery:
    def test_silent_crash_detected_and_recovered(self, harness):
        testbed, scheduler, ledger, injector, detector, manager = harness
        session = testbed.configurator.create_session(
            audio_request(testbed, "jornada"), user_id="alice"
        )
        session.start(skip_downloads=True)
        assert "desktop2" in session.devices_in_use()

        detector.start(horizon_s=5.0)
        injector.arm(
            FaultSchedule.of(FaultSpec(FaultKind.DEVICE_CRASH, 0.2, "desktop2"))
        )
        assert _wait_until(lambda: manager.metrics.count("recoveries") >= 1)

        assert session.state is SessionState.RUNNING
        assert "desktop2" not in session.devices_in_use()
        [report] = manager.reports
        assert report.recovered
        assert report.mttr_ms is not None and report.mttr_ms > 0
        assert ledger.audit() == []

    def test_budget_exhaustion_terminates_on_wall_clock(self, harness):
        testbed, scheduler, ledger, injector, detector, manager = harness
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="bob"
        )
        session.start(skip_downloads=True)

        detector.start(horizon_s=5.0)
        injector.arm(
            FaultSchedule.of(FaultSpec(FaultKind.DEVICE_CRASH, 0.1, "desktop2"))
        )
        # The pinned client died: recovery must exhaust its budget and
        # terminate (no hang), leaving a structured report and a balanced
        # ledger.
        assert _wait_until(
            lambda: manager.metrics.count("recovery_failures") >= 1
        )
        [report] = manager.reports
        assert not report.recovered
        assert "budget exhausted" in report.reason
        assert session.state is not SessionState.RUNNING
        assert ledger.audit() == []

    def test_scheduler_close_is_final(self):
        scheduler = WallClockScheduler()
        handle = scheduler.schedule(10.0, lambda: None)
        scheduler.close()
        with pytest.raises(RuntimeError):
            scheduler.schedule(0.1, lambda: None)
        scheduler.cancel(handle)  # harmless after close
