"""Unit tests for application sessions over the audio testbed."""

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.events.types import Topics
from repro.runtime.session import ApplicationSession, SessionState


@pytest.fixture
def testbed():
    return build_audio_testbed(preinstall=True)


def start_session(testbed, client="desktop2"):
    session = testbed.configurator.create_session(
        audio_request(testbed, client), user_id="alice"
    )
    session.start()
    return session


class TestBeforeStart:
    def test_empty_session_id_rejected(self, testbed):
        with pytest.raises(ValueError, match="session_id"):
            ApplicationSession(
                "", testbed.configurator, audio_request(testbed, "desktop2")
            )

    def test_new_session_uses_no_devices_and_has_no_rate(self, testbed):
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        assert session.state is SessionState.NEW
        assert session.devices_in_use() == []
        assert session.delivered_rate() is None


class TestStart:
    def test_successful_start(self, testbed):
        session = start_session(testbed)
        assert session.state is SessionState.RUNNING
        assert session.graph is not None
        assert session.deployment is not None
        assert session.timeline[0].success

    def test_start_twice_rejected(self, testbed):
        session = start_session(testbed)
        with pytest.raises(RuntimeError):
            session.start()

    def test_resources_allocated_on_devices(self, testbed):
        session = start_session(testbed)
        used = session.devices_in_use()
        assert "desktop1" in used  # server hosted there
        total_allocated = sum(
            testbed.devices[d].allocated.get("memory", 0.0) for d in used
        )
        assert total_allocated > 0

    def test_configured_event_published(self, testbed):
        start_session(testbed)
        assert testbed.server.bus.history(Topics.SESSION_CONFIGURED)

    def test_delivered_rate_read_from_sink(self, testbed):
        session = start_session(testbed)
        assert session.delivered_rate() == pytest.approx(40.0)

    def test_stateful_components_seeded(self, testbed):
        session = start_session(testbed)
        assert "audio-player" in session.component_states


class TestSwitchDevice:
    def test_switch_to_pda_inserts_transcoder(self, testbed):
        session = start_session(testbed)
        record = session.switch_device("jornada", "pda")
        assert record.success
        assert any(
            "transcoder" in cid for cid in session.graph.component_ids()
        )
        assert session.graph.component("audio-player").pinned_to == "jornada"

    def test_switch_reports_handoff_timing(self, testbed):
        session = start_session(testbed)
        record = session.switch_device("jornada", "pda")
        assert record.handoff is not None
        assert record.timing.handoff_ms > 0

    def test_playback_position_survives_handoff(self, testbed):
        session = start_session(testbed)
        session.record_progress(120.0)
        session.switch_device("jornada", "pda")
        assert session.playback_position() == pytest.approx(120.0)

    def test_old_resources_released_after_switch(self, testbed):
        session = start_session(testbed)
        old_player_device = "desktop2"
        session.switch_device("jornada", "pda")
        # The desktop player's allocation is gone (only server remains
        # there if the distributor chose so).
        allocations = testbed.devices[old_player_device].active_allocations()
        assert all("audio-player" != a.owner for a in allocations)

    def test_switch_requires_running_session(self, testbed):
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        with pytest.raises(RuntimeError):
            session.switch_device("jornada", "pda")

    def test_switch_back_removes_transcoder(self, testbed):
        session = start_session(testbed)
        session.switch_device("jornada", "pda")
        record = session.switch_device("desktop3", "pc")
        assert record.success
        assert not any(
            "transcoder" in cid for cid in session.graph.component_ids()
        )


class TestOverheadAccounting:
    def test_total_overhead_sums_timeline(self, testbed):
        session = start_session(testbed)
        first = session.timeline[0].timing.total_ms
        session.switch_device("jornada", "pda")
        second = session.timeline[1].timing.total_ms
        assert session.total_overhead_ms() == pytest.approx(first + second)

    def test_overhead_small_relative_to_execution(self, testbed):
        """The paper's headline claim, quantified: a one-hour session's
        configuration overhead stays under one percent."""
        session = start_session(testbed)
        session.switch_device("jornada", "pda")
        session.switch_device("desktop3", "pc")
        execution_time_ms = 3600.0 * 1000.0  # one hour of music
        assert session.total_overhead_ms() / execution_time_ms < 0.01


class TestStop:
    def test_stop_releases_everything(self, testbed):
        session = start_session(testbed)
        session.stop()
        assert session.state is SessionState.STOPPED
        for device in testbed.devices.values():
            assert device.allocated.is_zero()
        assert testbed.server.network.active_reservations() == []

    def test_stop_publishes_event(self, testbed):
        session = start_session(testbed)
        session.stop()
        assert testbed.server.bus.history(Topics.APPLICATION_STOPPED)

    def test_stop_idempotent(self, testbed):
        session = start_session(testbed)
        session.stop()
        session.stop()
        assert session.state is SessionState.STOPPED


class TestRedistribute:
    def test_redistribute_after_device_crash(self, testbed):
        session = start_session(testbed)
        # Crash a device the session might use, then redistribute.
        transcoderless_devices = set(session.devices_in_use())
        victim = next(iter(transcoderless_devices - {"desktop1", "desktop2"}),
                      None)
        record = session.redistribute(label="manual")
        assert record.success
        assert session.state is SessionState.RUNNING

    def test_redistribute_requires_running(self, testbed):
        session = testbed.configurator.create_session(
            audio_request(testbed, "desktop2")
        )
        with pytest.raises(RuntimeError):
            session.redistribute()
