"""Recovery manager: quarantine, healing, bounded-budget teardown."""

import pytest

from repro.apps.audio_on_demand import (
    audio_degradation_ladder,
    audio_request,
    build_audio_testbed,
)
from repro.events.types import Topics
from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector
from repro.faults.metrics import RecoveryMetrics
from repro.faults.model import FaultKind, FaultSchedule, FaultSpec
from repro.faults.recovery import RecoveryManager, RecoveryPolicy
from repro.runtime.clock import SimScheduler
from repro.runtime.session import SessionState
from repro.server.ledger import ReservationLedger
from repro.sim.kernel import Simulator


def build_harness(policy=None):
    simulator = Simulator()
    scheduler = SimScheduler(simulator)
    testbed = build_audio_testbed(clock=scheduler.clock())
    ledger = ReservationLedger(testbed.server)
    testbed.configurator.ledger = ledger
    metrics = RecoveryMetrics()
    injector = FaultInjector(testbed.server, scheduler, metrics=metrics)
    detector = FailureDetector(
        testbed.server,
        scheduler,
        heartbeat_interval_s=1.0,
        suspicion_threshold=3.0,
        metrics=metrics,
    )
    manager = RecoveryManager(
        testbed.configurator,
        scheduler,
        ladder=audio_degradation_ladder(),
        policy=policy or RecoveryPolicy(max_attempts=3, backoff_base_s=0.5),
        metrics=metrics,
    )
    return testbed, simulator, scheduler, ledger, injector, detector, manager


class TestRecoverableCrash:
    def test_session_survives_crash_of_transcoder_host(self):
        (testbed, simulator, scheduler, ledger,
         injector, detector, manager) = build_harness()
        # The jornada session carries a movable transcoder on desktop2 —
        # the non-trivial recoverable scenario.
        session = testbed.configurator.create_session(
            audio_request(testbed, "jornada"), user_id="alice"
        )
        session.start(skip_downloads=True)
        assert "desktop2" in session.devices_in_use()

        detector.start(horizon_s=40.0)
        injector.arm(
            FaultSchedule.of(FaultSpec(FaultKind.DEVICE_CRASH, 5.0, "desktop2"))
        )
        simulator.run_until(41.0)

        assert session.state is SessionState.RUNNING
        assert "desktop2" not in session.devices_in_use()
        assert manager.metrics.count("recoveries") == 1
        assert manager.metrics.count("sessions_affected") == 1
        [report] = manager.reports
        assert report.recovered and report.attempts == 1
        assert report.mttr_ms is not None and report.mttr_ms > 0
        # Detection latency was measured from the injection timestamp.
        assert manager.metrics.stage("detection_ms").count == 1
        # The crash was confirmed through the membership protocol.
        assert testbed.server.bus.history(Topics.DEVICE_CRASHED)
        assert testbed.server.bus.history(Topics.SESSION_RECOVERED)
        assert ledger.audit() == []

    def test_suspect_is_quarantined_from_planning(self):
        (testbed, simulator, scheduler, ledger,
         injector, detector, manager) = build_harness()
        detector.start(horizon_s=20.0)
        injector.arm(
            FaultSchedule.of(FaultSpec(FaultKind.DEVICE_CRASH, 1.0, "desktop2"))
        )
        simulator.run_until(21.0)
        assert "desktop2" in testbed.configurator.quarantined_devices()
        # New sessions plan around the quarantined device.
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop3")
        )
        record = session.start(skip_downloads=True)
        assert record.success
        assert "desktop2" not in session.devices_in_use()

    def test_false_suspicion_lifts_the_quarantine(self):
        (testbed, simulator, scheduler, ledger,
         injector, detector, manager) = build_harness()
        detector.start(horizon_s=30.0)
        simulator.run_until(1.0)
        # The network eats desktop2's heartbeats while the device stays up:
        # the detector suspects it, the manager quarantines it but — the
        # device being demonstrably online — does NOT promote it to a crash.
        detector.mute("desktop2")
        simulator.run_until(8.0)
        assert "desktop2" in testbed.configurator.quarantined_devices()
        assert testbed.server.bus.history(Topics.DEVICE_CRASHED) == []
        assert testbed.devices["desktop2"].online
        # Heartbeats resume; the suspicion is cleared and the quarantine
        # lifts, readmitting the device to planning.
        detector.unmute("desktop2")
        simulator.run_until(12.0)
        assert "desktop2" not in testbed.configurator.quarantined_devices()
        assert manager.metrics.count("false_suspicions") == 1


class TestBudgetExhaustion:
    def test_client_crash_fails_cleanly_with_report(self):
        (testbed, simulator, scheduler, ledger,
         injector, detector, manager) = build_harness()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="bob"
        )
        session.start(skip_downloads=True)

        detector.start(horizon_s=60.0)
        injector.arm(
            FaultSchedule.of(FaultSpec(FaultKind.DEVICE_CRASH, 2.0, "desktop2"))
        )
        simulator.run_until(61.0)

        # The player was pinned to the dead client: no redistribution or
        # degraded restart can help. The budget bounds the attempts and the
        # session is torn down with a structured, user-visible report.
        assert session.state is not SessionState.RUNNING
        assert manager.metrics.count("recovery_failures") == 1
        assert manager.metrics.count("recoveries") == 0
        [report] = manager.reports
        assert not report.recovered
        assert report.attempts == 3
        assert "budget exhausted" in report.reason
        [event] = testbed.server.bus.history(Topics.SESSION_UNRECOVERABLE)
        assert event.payload["session_id"] == session.session_id
        assert event.payload["reason"] == report.reason
        # Teardown left the ledger balanced: nothing still held.
        assert ledger.audit() == []
        assert session.deployment is None

    def test_backoff_spaces_the_attempts(self):
        policy = RecoveryPolicy(
            max_attempts=3, backoff_base_s=2.0, backoff_factor=2.0,
            max_backoff_s=60.0,
        )
        assert policy.backoff_s(1) == 2.0
        assert policy.backoff_s(2) == 4.0
        assert policy.backoff_s(5) == 32.0
        capped = RecoveryPolicy(backoff_base_s=2.0, max_backoff_s=5.0)
        assert capped.backoff_s(4) == 5.0


class TestManagerLifecycle:
    def test_close_releases_subscriptions(self):
        (testbed, simulator, scheduler, ledger,
         injector, detector, manager) = build_harness()
        baseline = testbed.server.bus.subscriber_count()
        manager.close()
        assert testbed.server.bus.subscriber_count() == baseline - 3
        manager.close()  # idempotent

    def test_session_stopped_mid_recovery_aborts_episode(self):
        (testbed, simulator, scheduler, ledger,
         injector, detector, manager) = build_harness()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        session.start(skip_downloads=True)
        detector.start(horizon_s=30.0)
        injector.arm(
            FaultSchedule.of(FaultSpec(FaultKind.DEVICE_CRASH, 2.0, "desktop2"))
        )
        # Run until the first failed attempt has scheduled its retry, then
        # the user gives up and stops the session.
        simulator.run_until(7.0)
        session.stop()
        simulator.run_until(31.0)
        reports = [r for r in manager.reports if r.session_id == session.session_id]
        assert len(reports) == 1
        assert not reports[0].recovered
        assert ledger.audit() == []


class TestRecoveryPolicy:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"max_attempts": 0}, "at least one attempt"),
            ({"backoff_base_s": -0.1}, "cannot be negative"),
            ({"max_backoff_s": -1.0}, "cannot be negative"),
            ({"backoff_factor": 0.5}, "factor must be >= 1"),
        ],
        ids=["no-attempts", "negative-base", "negative-cap", "shrinking-factor"],
    )
    def test_invalid_policy_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RecoveryPolicy(**kwargs)

    def test_backoff_grows_geometrically_up_to_the_cap(self):
        policy = RecoveryPolicy(
            backoff_base_s=0.5, backoff_factor=2.0, max_backoff_s=3.0
        )
        delays = [policy.backoff_s(n) for n in range(6)]
        assert delays == [0.5, 0.5, 1.0, 2.0, 3.0, 3.0]


class TestRecoveryMetricsRates:
    def test_success_rate_is_one_when_nothing_was_affected(self):
        metrics = RecoveryMetrics()
        metrics.incr("recoveries")  # a stray success cannot lift it above 1
        assert metrics.recovery_success_rate() == 1.0

    def test_success_rate_matches_the_snapshot(self):
        metrics = RecoveryMetrics()
        metrics.incr("sessions_affected", by=4)
        metrics.incr("recoveries", by=3)
        assert metrics.recovery_success_rate() == 0.75
        derived = metrics.snapshot()["derived"]
        assert derived["recovery_success_rate"] == 0.75

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError, match="unknown counter"):
            RecoveryMetrics().incr("nope")
