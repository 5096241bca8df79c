"""Figure 3: end-to-end QoS of the four prototype configuration events.

The scenario table from Section 4:

1. start "mobile audio-on-demand" on desktop1 (user QoS: CD-quality
   music) — audio server on desktop1, player on desktop2; measured 40 fps;
2. switch from desktop to PDA over a wireless link — an MPEG2wav
   transcoder is inserted and the music continues from the interruption
   point; measured 40 fps;
3. switch back from the PDA to another desktop (desktop3); 40 fps;
4. start video conferencing on the workstations (user QoS: video 25 fps,
   audio 6 fps) — a non-linear service graph with recorders, gateway,
   lipsync and two players; measured 25 fps video, 6 fps audio.

Each event runs the real configuration pipeline (compose → distribute →
deploy → handoff) against the modelled testbeds, then drives the deployed
graph through the synthetic media pipeline to *measure* the delivered
frame rate — the reproduction of the figure's "Measured QoS" column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.apps.media import MediaPipeline
from repro.apps.video_conferencing import (
    build_conferencing_testbed,
    conferencing_request,
)
from repro.runtime.session import ApplicationSession, ConfigurationRecord
from repro.sim.kernel import Simulator


@dataclass
class EventResult:
    """One row of Figure 3 (plus the Figure 4 timing carried along)."""

    label: str
    description: str
    success: bool
    devices_used: List[str] = field(default_factory=list)
    components: List[str] = field(default_factory=list)
    measured_fps: Dict[str, float] = field(default_factory=dict)
    record: Optional[ConfigurationRecord] = None
    playback_position_s: float = 0.0


@dataclass
class PrototypeScenarioResult:
    """All four events."""

    events: List[EventResult]

    def event(self, label: str) -> EventResult:
        for event in self.events:
            if event.label == label:
                return event
        raise KeyError(label)

    def format_report(self) -> str:
        lines = [
            "Figure 3. End-to-end QoS of different service configurations",
            "",
        ]
        for index, event in enumerate(self.events, start=1):
            lines.append(f"Event {index}: {event.description}")
            lines.append(f"  devices: {', '.join(event.devices_used)}")
            lines.append(f"  components: {', '.join(event.components)}")
            qos = ", ".join(
                f"{sink}={fps:.1f}fps" for sink, fps in sorted(event.measured_fps.items())
            )
            lines.append(f"  measured QoS: {qos}")
            lines.append("")
        return "\n".join(lines)


def _measure(
    session: ApplicationSession,
    testbed_network,
    duration_s: float,
    window_s: float,
) -> Dict[str, float]:
    """Run the deployed graph through the media pipeline; fps per sink."""
    assert session.graph is not None and session.deployment is not None
    sim = Simulator()
    pipeline = MediaPipeline(
        sim,
        session.graph,
        assignment=session.deployment.assignment,
        topology=testbed_network,
    )
    pipeline.run_for(duration_s)
    return pipeline.measured_qos(window_s)


def run_prototype_scenario(
    measure_duration_s: float = 30.0,
    measure_window_s: float = 10.0,
) -> PrototypeScenarioResult:
    """Execute all four events and measure their delivered QoS."""
    events: List[EventResult] = []

    # -- events 1-3: mobile audio-on-demand (components pre-installed) -----
    # The user's portal is desktop2; the audio server lives on desktop1
    # (matching the figure's event-1 row: server on desktop1, player on
    # desktop2).
    audio = build_audio_testbed(preinstall=True)
    session = audio.configurator.create_session(
        audio_request(audio, "desktop2"), user_id="alice"
    )

    record = session.start(label="event1:start-on-desktop", skip_downloads=False)
    session.record_progress(120.0)  # two minutes of music before the switch
    events.append(
        _event_result(
            "event1",
            'Start "mobile audio-on-demand" on desktop1 (CD quality)',
            session,
            record,
            _measure(session, audio.server.network, measure_duration_s,
                     measure_window_s),
        )
    )

    record = session.switch_device(
        "jornada", "pda", label="event2:switch-to-pda"
    )
    events.append(
        _event_result(
            "event2",
            "Switch from desktop to PDA over the wireless link",
            session,
            record,
            _measure(session, audio.server.network, measure_duration_s,
                     measure_window_s),
        )
    )

    session.record_progress(300.0)
    record = session.switch_device(
        "desktop3", "pc", label="event3:switch-back-to-desktop"
    )
    events.append(
        _event_result(
            "event3",
            "Switch back from PDA to another desktop (desktop3)",
            session,
            record,
            _measure(session, audio.server.network, measure_duration_s,
                     measure_window_s),
        )
    )
    session.stop()

    # -- event 4: video conferencing (everything downloaded on demand) ------
    conference = build_conferencing_testbed()
    conf_session = conference.configurator.create_session(
        conferencing_request(conference, "workstation3"), user_id="bob"
    )
    record = conf_session.start(label="event4:start-video-conferencing")
    events.append(
        _event_result(
            "event4",
            "Start video conferencing on the workstations (25fps video, "
            "6fps audio)",
            conf_session,
            record,
            _measure(conf_session, conference.server.network,
                     measure_duration_s, measure_window_s),
        )
    )
    conf_session.stop()

    return PrototypeScenarioResult(events=events)


def _event_result(
    label: str,
    description: str,
    session: ApplicationSession,
    record: ConfigurationRecord,
    measured: Dict[str, float],
) -> EventResult:
    return EventResult(
        label=label,
        description=description,
        success=record.success,
        devices_used=session.devices_in_use(),
        components=(
            session.graph.component_ids() if session.graph is not None else []
        ),
        measured_fps=measured,
        record=record,
        playback_position_s=session.playback_position(),
    )
