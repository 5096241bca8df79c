"""Unit tests for the integrated service configurator."""

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.apps.video_conferencing import (
    build_conferencing_testbed,
    conferencing_request,
)
from repro.events.types import Topics
from repro.resources.vectors import ResourceVector
from repro.runtime.session import SessionState
from repro.server.ledger import TransactionState


class TestConfigure:
    def test_timing_breakdown_populated(self):
        testbed = build_audio_testbed()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        record = session.start()
        assert record.timing.composition_ms > 0
        assert record.timing.distribution_ms > 0
        assert record.timing.download_ms == 0.0  # pre-installed
        assert record.timing.initialization_ms > 0

    def test_download_overhead_when_not_preinstalled(self):
        testbed = build_conferencing_testbed()
        session = testbed.configurator.create_session(
            conferencing_request(testbed)
        )
        record = session.start()
        assert record.success
        assert record.timing.download_ms > record.timing.composition_ms

    def test_session_ids_unique(self):
        testbed = build_audio_testbed()
        first = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        second = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        assert first.session_id != second.session_id
        assert testbed.configurator.sessions[first.session_id] is first

    def test_failed_composition_reports_failure(self):
        testbed = build_audio_testbed()
        request = audio_request(testbed, "desktop2")
        # Remove every player advertisement: composition must fail.
        for provider_id in ("player/desktop", "player/pda"):
            testbed.server.domain.registry.unregister(provider_id)
        session = testbed.configurator.create_session(request)
        record = session.start()
        assert not record.success
        assert session.state is SessionState.FAILED
        assert testbed.server.bus.history(Topics.SESSION_FAILED)

    def test_infeasible_distribution_reports_failure(self):
        testbed = build_audio_testbed()
        # Saturate every device so nothing fits.
        for device in testbed.devices.values():
            device.allocate(device.available())
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        record = session.start()
        assert not record.success
        assert session.state is SessionState.FAILED


def race_after_planning(configurator, take):
    """Run ``take`` between a plan and its booking, as a concurrent taker."""
    plan = configurator.plan

    def racing(*args, **kwargs):
        result = plan(*args, **kwargs)
        take()
        return result

    configurator.plan = racing


class TestBooking:
    def test_sessions_book_through_the_configurators_ledger(self):
        testbed = build_audio_testbed()
        ledger = testbed.configurator.ledger
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        assert session.start().success
        txn = session.deployment.ledger_txn
        assert txn.state is TransactionState.COMMITTED
        assert txn.owner == session.session_id
        server_host = testbed.devices["desktop1"]
        assert [a.owner for a in server_host.active_allocations()] == [txn.owner]
        session.stop()
        assert txn.state is TransactionState.RELEASED
        assert all(d.allocated.is_zero() for d in testbed.devices.values())
        assert ledger.audit() == []

    def test_resource_overflow_fails_without_leaking(self):
        testbed = build_audio_testbed()
        desktop1 = testbed.devices["desktop1"]
        # The server needs 48 MB on desktop1; the taker leaves 16.
        race_after_planning(
            testbed.configurator,
            lambda: desktop1.allocate(ResourceVector(memory=240.0)),
        )
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        record = session.start()
        assert not record.success and record.conflict
        assert session.deployment is None
        assert desktop1.allocated == ResourceVector(memory=240.0)
        assert testbed.devices["desktop2"].allocated.is_zero()
        network = testbed.server.network
        assert network.available_bandwidth("desktop1", "desktop2") == 100.0
        assert testbed.configurator.ledger.audit() == []

    def test_bandwidth_overflow_fails_without_leaking(self):
        testbed = build_audio_testbed()
        network = testbed.server.network
        # The stream needs 1.4 Mbps between the desktops; 0.5 are left.
        race_after_planning(
            testbed.configurator,
            lambda: network.reserve("desktop1", "desktop2", 99.5),
        )
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        record = session.start()
        assert not record.success and record.conflict
        assert session.deployment is None
        assert all(d.allocated.is_zero() for d in testbed.devices.values())
        assert network.available_bandwidth(
            "desktop1", "desktop2"
        ) == pytest.approx(0.5)
        assert testbed.configurator.ledger.audit() == []


class TestAutoReconfiguration:
    def test_device_switch_event_triggers_handoff(self):
        testbed = build_audio_testbed()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="alice"
        )
        session.start()
        testbed.configurator.enable_auto_reconfiguration(session)
        testbed.space.register_user("alice", "lab", "desktop2")
        testbed.space.switch_device("alice", "jornada")
        assert session.client_device == "jornada"
        assert any("switch" in r.label for r in session.timeline)

    def test_switch_event_for_other_user_ignored(self):
        testbed = build_audio_testbed()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="alice"
        )
        session.start()
        testbed.configurator.enable_auto_reconfiguration(session)
        testbed.space.register_user("bob", "lab", "desktop3")
        testbed.space.switch_device("bob", "jornada")
        assert session.client_device == "desktop2"

    def test_device_crash_triggers_redistribution(self):
        testbed = build_audio_testbed()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="alice"
        )
        session.start()
        testbed.configurator.enable_auto_reconfiguration(session)
        # Crash a device the session does not strictly need (a spare), then
        # one it uses: only the latter triggers redistribution.
        used_before = set(session.devices_in_use())
        spare = next(
            d for d in testbed.devices if d not in used_before
        )
        testbed.server.crash(spare)
        assert len(session.timeline) == 1  # no reaction
        victim = next(iter(used_before - {"desktop2"}), None)
        if victim is not None and victim != "desktop1":
            testbed.server.crash(victim)
            assert len(session.timeline) == 2


class TestSubscriptionLifecycle:
    """Auto-reconfiguration wiring must not leak bus subscribers."""

    def test_stop_returns_bus_to_baseline(self):
        testbed = build_audio_testbed()
        baseline = testbed.server.bus.subscriber_count()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="alice"
        )
        session.start()
        testbed.configurator.enable_auto_reconfiguration(session)
        assert testbed.server.bus.subscriber_count() == baseline + 3
        session.stop()
        assert testbed.server.bus.subscriber_count() == baseline

    def test_many_session_lifecycles_do_not_accumulate_handlers(self):
        testbed = build_audio_testbed()
        baseline = testbed.server.bus.subscriber_count()
        for index in range(10):
            session = testbed.configurator.create_session(
                audio_request(testbed, "desktop2"), user_id=f"user-{index}"
            )
            session.start(skip_downloads=True)
            testbed.configurator.enable_auto_reconfiguration(session)
            session.stop()
        assert testbed.server.bus.subscriber_count() == baseline

    def test_re_enabling_replaces_previous_wiring(self):
        testbed = build_audio_testbed()
        baseline = testbed.server.bus.subscriber_count()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="alice"
        )
        session.start()
        testbed.configurator.enable_auto_reconfiguration(session)
        testbed.configurator.enable_auto_reconfiguration(session)
        assert testbed.server.bus.subscriber_count() == baseline + 3

    def test_disable_is_idempotent(self):
        testbed = build_audio_testbed()
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        session.start()
        testbed.configurator.disable_auto_reconfiguration(session)
        testbed.configurator.enable_auto_reconfiguration(session)
        baseline_after = testbed.server.bus.subscriber_count()
        testbed.configurator.disable_auto_reconfiguration(session)
        testbed.configurator.disable_auto_reconfiguration(session)
        assert testbed.server.bus.subscriber_count() == baseline_after - 3
