"""Unit tests for the video-conferencing application testbed."""

from repro.apps.video_conferencing import (
    build_conferencing_testbed,
    conferencing_abstract_graph,
    conferencing_request,
)


class TestAbstractGraph:
    def test_non_linear_shape(self):
        graph = conferencing_abstract_graph()
        graph.validate()
        assert len(graph) == 6
        # The gateway has two producers: this is not a chain.
        incoming = [e for e in graph.edges() if e.target == "gateway"]
        assert len(incoming) == 2

    def test_recorders_pinned_to_workstation1(self):
        graph = conferencing_abstract_graph()
        assert graph.spec("video-recorder").pin.device_id == "workstation1"
        assert graph.spec("audio-recorder").pin.device_id == "workstation1"

    def test_players_pinned_to_client(self):
        graph = conferencing_abstract_graph()
        assert graph.spec("video-player").pin.role == "client"
        assert graph.spec("audio-player").pin.role == "client"


class TestTestbed:
    def test_nothing_preinstalled(self):
        testbed = build_conferencing_testbed()
        for device in testbed.devices.values():
            assert not device.installed_components

    def test_repository_has_every_package(self):
        testbed = build_conferencing_testbed()
        for service_type in (
            "video_recorder",
            "audio_recorder",
            "conference_gateway",
            "lipsync",
            "video_player",
            "conference_audio_player",
        ):
            assert testbed.repository.has_package(service_type)


class TestConfiguration:
    def test_full_configuration_succeeds(self):
        testbed = build_conferencing_testbed()
        session = testbed.configurator.create_session(
            conferencing_request(testbed)
        )
        record = session.start()
        assert record.success
        assignment = session.deployment.assignment

        # The pins from the figure hold.
        assert assignment["video-recorder"] == "workstation1"
        assert assignment["audio-recorder"] == "workstation1"
        assert assignment["video-player"] == "workstation3"
        assert assignment["audio-player"] == "workstation3"

    def test_download_dominates_overhead(self):
        testbed = build_conferencing_testbed()
        session = testbed.configurator.create_session(
            conferencing_request(testbed)
        )
        record = session.start()
        timing = record.timing
        assert timing.download_ms > timing.composition_ms
        assert timing.download_ms > timing.distribution_ms
        assert timing.download_ms > timing.init_or_handoff_ms

    def test_components_installed_after_first_start(self):
        testbed = build_conferencing_testbed()
        session = testbed.configurator.create_session(
            conferencing_request(testbed)
        )
        session.start()
        session.stop()
        # A second session finds the code cached: far cheaper downloads.
        second = testbed.configurator.create_session(
            conferencing_request(testbed)
        )
        record = second.start()
        assert record.timing.download_ms == 0.0
