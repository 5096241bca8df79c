"""Unit tests for cross-domain session roaming."""

import pytest

from repro.apps.audio_on_demand import (
    _desktop_player_template,
    _server_template,
    audio_request,
    build_audio_testbed,
)
from repro.composition.composer import ServiceComposer
from repro.composition.corrections import CorrectionPolicy
from repro.discovery.registry import ServiceDescription
from repro.distribution.distributor import ServiceDistributor
from repro.distribution.heuristic import HeuristicDistributor
from repro.domain.device import Device, DeviceClass
from repro.domain.space import SmartSpace
from repro.network.links import LinkClass
from repro.qos.translation import default_catalog
from repro.resources.vectors import ResourceVector
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.roaming import SessionRoamer
from repro.runtime.session import SessionState


def build_hotel_domain():
    """A second domain: one hotel PC and a proxy server, own registry."""
    space = SmartSpace()
    server = space.create_domain("hotel")
    devices = {
        "hotel-pc": Device(
            "hotel-pc",
            DeviceClass.PC,
            capacity=ResourceVector(memory=128.0, cpu=2.0),
            installed_components=["audio_server", "audio_player", "MPEG2wav"],
        ),
        "hotel-proxy": Device(
            "hotel-proxy",
            DeviceClass.SERVER,
            capacity=ResourceVector(memory=512.0, cpu=4.0),
            installed_components=["audio_server", "audio_player", "MPEG2wav"],
        ),
    }
    for device in devices.values():
        server.join(device)
    server.network.connect("hotel-pc", "hotel-proxy", LinkClass.FAST_ETHERNET)

    registry = server.domain.registry
    registry.register(
        ServiceDescription(
            service_type="audio_server",
            provider_id="audio-server@hotel-proxy",
            component_template=_server_template(),
            attributes=(("media", "audio"), ("format", "MPEG")),
            hosted_on="hotel-proxy",
        )
    )
    registry.register(
        ServiceDescription(
            service_type="audio_player",
            provider_id="player@hotel",
            component_template=_desktop_player_template(),
            attributes=(("media", "audio"),),
            platforms=frozenset({DeviceClass.PC, DeviceClass.WORKSTATION}),
        )
    )
    composer = ServiceComposer(
        server.discovery, CorrectionPolicy(catalog=default_catalog())
    )
    configurator = ServiceConfigurator(
        server, composer, ServiceDistributor(HeuristicDistributor())
    )
    return configurator, devices


@pytest.fixture
def lab_session():
    testbed = build_audio_testbed()
    session = testbed.configurator.create_session(
        audio_request(testbed, "desktop2"), user_id="alice"
    )
    session.start()
    session.record_progress(240.0)
    return testbed, session


class TestRoaming:
    def test_successful_roam(self, lab_session):
        testbed, session = lab_session
        hotel, _devices = build_hotel_domain()
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert report.success
        assert report.old_domain == "lab"
        assert report.new_domain == "hotel"
        assert report.new_session.state is SessionState.RUNNING
        assert report.new_session.client_device == "hotel-pc"

    def test_old_resources_released(self, lab_session):
        testbed, session = lab_session
        hotel, _devices = build_hotel_domain()
        SessionRoamer().roam(session, hotel, "hotel-pc")
        for device in testbed.devices.values():
            assert device.allocated.is_zero()
        assert session.state is SessionState.STOPPED

    def test_state_carried_across_wan(self, lab_session):
        testbed, session = lab_session
        hotel, _devices = build_hotel_domain()
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert report.new_session.playback_position() == pytest.approx(240.0)
        assert report.state_transfer_s > 0.0

    def test_slower_wan_costs_more(self, lab_session):
        testbed, session = lab_session
        hotel, _devices = build_hotel_domain()
        report_fast = SessionRoamer(wan_bandwidth_mbps=100.0).roam(
            session, hotel, "hotel-pc"
        )
        # Second roam needs a fresh origin session.
        testbed2 = build_audio_testbed()
        session2 = testbed2.configurator.create_session(
            audio_request(testbed2, "desktop2"), user_id="alice"
        )
        session2.start()
        hotel2, _ = build_hotel_domain()
        report_slow = SessionRoamer(wan_bandwidth_mbps=1.0).roam(
            session2, hotel2, "hotel-pc"
        )
        assert report_slow.state_transfer_s > report_fast.state_transfer_s

    def test_new_domain_uses_its_own_services(self, lab_session):
        testbed, session = lab_session
        hotel, _devices = build_hotel_domain()
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assignment = report.new_session.deployment.assignment
        assert assignment["audio-server"] == "hotel-proxy"
        assert assignment["audio-player"] == "hotel-pc"

    def test_failed_roam_reported(self, lab_session):
        testbed, session = lab_session
        hotel, devices = build_hotel_domain()
        # Saturate the destination so nothing fits.
        for device in devices.values():
            device.allocate(device.available())
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert not report.success
        assert report.new_session.state is SessionState.FAILED

    def test_failed_roam_leaves_old_session_running(self, lab_session):
        testbed, session = lab_session
        hotel, devices = build_hotel_domain()
        for device in devices.values():
            device.allocate(device.available())
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert not report.success
        # Make-before-break: the rejection must not disturb the origin.
        assert session.state is SessionState.RUNNING
        assert session.deployment is not None
        assert any(
            not device.allocated.is_zero()
            for device in testbed.devices.values()
        )

    def test_total_handoff_ms_sums_record_and_transfer(self, lab_session):
        testbed, session = lab_session
        hotel, _devices = build_hotel_domain()
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert report.success
        assert report.total_handoff_ms == pytest.approx(
            report.record.timing.total_ms + report.state_transfer_s * 1000.0
        )
        assert report.total_handoff_ms > report.record.timing.total_ms

    def test_total_handoff_ms_on_failed_roam_is_record_only(self, lab_session):
        testbed, session = lab_session
        hotel, devices = build_hotel_domain()
        for device in devices.values():
            device.allocate(device.available())
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert not report.success
        # No state ever crossed the WAN, so the handoff cost is exactly
        # the destination's (failed) configuration attempt.
        assert report.state_transfer_s == 0.0
        assert report.total_handoff_ms == pytest.approx(
            report.record.timing.total_ms
        )

    def test_total_handoff_ms_without_record_is_transfer_only(self):
        from repro.runtime.roaming import RoamingReport

        report = RoamingReport(
            success=False,
            old_domain="lab",
            new_domain="hotel",
            record=None,
            state_transfer_s=0.25,
            new_session=None,
        )
        assert report.total_handoff_ms == pytest.approx(250.0)

    def test_failed_roam_preserves_state_and_allows_retry(self, lab_session):
        testbed, session = lab_session
        hotel, devices = build_hotel_domain()
        holds = [d.allocate(d.available()) for d in devices.values()]
        report = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert not report.success
        assert session.playback_position() == pytest.approx(240.0)
        # Once the destination frees up, the same session can roam again.
        for device, hold in zip(devices.values(), holds):
            device.release(hold)
        retry = SessionRoamer().roam(session, hotel, "hotel-pc")
        assert retry.success
        assert retry.new_session.playback_position() == pytest.approx(240.0)
        assert session.state is SessionState.STOPPED

    def test_invalid_wan_parameters(self):
        with pytest.raises(ValueError):
            SessionRoamer(wan_bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            SessionRoamer(wan_latency_ms=-1.0)


class TestMidRoamCrash:
    """A device dying *during* the make-before-break window.

    The roam is make-before-break: the destination configures first, the
    origin releases only after acceptance. A crash landing inside that
    window must never strand the user (the old session keeps running on a
    failed roam) nor unbalance the origin's reservation ledger.
    """

    def _ledgered_lab_session(self):
        testbed = build_audio_testbed()
        ledger = testbed.configurator.ledger
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2"), user_id="alice"
        )
        session.start()
        session.record_progress(240.0)
        return testbed, session, ledger

    def test_source_crash_during_failed_roam_keeps_old_session(self):
        from repro.events.types import Topics

        testbed, session, ledger = self._ledgered_lab_session()
        hotel, hotel_devices = build_hotel_domain()
        # Saturate the destination so its admission fails...
        for device in hotel_devices.values():
            device.allocate(device.available())
        # ...and have a source device crash at the exact moment the
        # destination rejects — inside the make-before-break window, while
        # the origin deployment is still live.
        crashed = []

        def crash_source_device(event):
            if not crashed:
                crashed.append(True)
                testbed.server.crash("desktop1")

        hotel.bus.subscribe(Topics.SESSION_FAILED, crash_source_device)
        report = SessionRoamer().roam(session, hotel, "hotel-pc")

        assert not report.success
        assert crashed  # the crash really happened mid-roam
        # Make-before-break: the origin session was never released.
        assert session.state is SessionState.RUNNING
        assert session.deployment is not None
        # The origin ledger stayed balanced despite the crash voiding the
        # dead device's allocations.
        assert ledger.audit() == []

    def test_source_crash_during_successful_roam_stays_balanced(self):
        from repro.events.types import Topics

        testbed, session, ledger = self._ledgered_lab_session()
        hotel, _devices = build_hotel_domain()
        # The crash lands after the destination admits the session but
        # before the origin releases its deployment.
        crashed = []

        def crash_source_device(event):
            if not crashed:
                crashed.append(True)
                testbed.server.crash("desktop1")

        hotel.bus.subscribe(Topics.SESSION_CONFIGURED, crash_source_device)
        report = SessionRoamer().roam(session, hotel, "hotel-pc")

        assert report.success
        assert crashed
        assert report.new_session.state is SessionState.RUNNING
        assert report.new_session.playback_position() == pytest.approx(240.0)
        assert session.state is SessionState.STOPPED
        # Releasing a deployment whose device died mid-roam must not
        # corrupt the ledger: every surviving device drained to zero.
        assert ledger.audit() == []
        for name, device in testbed.devices.items():
            if device.online:
                assert device.allocated.is_zero(), name
