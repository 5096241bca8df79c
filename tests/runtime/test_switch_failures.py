"""Failure paths of device-switch reconfiguration."""

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.runtime.session import SessionState


@pytest.fixture
def testbed():
    return build_audio_testbed()


def running_session(testbed):
    session = testbed.configurator.create_session(
        audio_request(testbed, "desktop2"), user_id="alice"
    )
    session.start()
    return session


class TestFailedSwitch:
    def test_switch_to_saturated_target_fails_cleanly(self, testbed):
        session = running_session(testbed)
        # Saturate the PDA so the pinned player cannot fit there.
        pda = testbed.devices["jornada"]
        pda.allocate(pda.available(), owner="background")
        record = session.switch_device("jornada", "pda")
        assert not record.success
        assert session.state is SessionState.FAILED

    def test_failed_switch_releases_old_deployment(self, testbed):
        session = running_session(testbed)
        pda = testbed.devices["jornada"]
        pda.allocate(pda.available(), owner="background")
        session.switch_device("jornada", "pda")
        # The user left the old portal; its resources are already freed
        # (only background allocations remain anywhere).
        for device in testbed.devices.values():
            assert all(
                allocation.owner == "background"
                for allocation in device.active_allocations()
            )

    def test_failed_switch_recorded_in_timeline(self, testbed):
        session = running_session(testbed)
        pda = testbed.devices["jornada"]
        pda.allocate(pda.available(), owner="background")
        session.switch_device("jornada", "pda")
        assert len(session.timeline) == 2
        assert not session.timeline[-1].success

    def test_switch_to_unknown_device_class_uses_previous(self, testbed):
        session = running_session(testbed)
        record = session.switch_device("desktop3")  # class defaults to old
        assert record.success
        assert session.request.client_device_class == "pc"

    def test_recovery_after_failed_switch_is_possible(self, testbed):
        session = running_session(testbed)
        pda = testbed.devices["jornada"]
        background = pda.allocate(pda.available(), owner="background")
        session.switch_device("jornada", "pda")
        assert session.state is SessionState.FAILED
        # The background load clears; a fresh session serves the user.
        pda.release(background)
        retry = testbed.configurator.create_session(
            audio_request(testbed, "jornada"), user_id="alice"
        )
        assert retry.start().success
