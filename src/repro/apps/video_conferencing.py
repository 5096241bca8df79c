"""The video-conferencing application (Figures 3 and 4, event 4).

A *non-linear* service graph — the capability prior linear-path systems
lacked: a video recorder and an audio recorder on workstation 1 feed a
gateway, a lip-sync service aligns the two streams, and separate video and
audio players render on the client workstation. The user requests video at
25 fps and audio at 6 fps.

For this application "all required service components need to be
downloaded on demand from the component repository", which is what makes
dynamic downloading dominate event 4's configuration overhead in Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.composition.composer import CompositionRequest, ServiceComposer
from repro.composition.corrections import CorrectionPolicy
from repro.discovery.registry import ServiceDescription
from repro.distribution.cost import CostWeights
from repro.distribution.distributor import ServiceDistributor
from repro.distribution.heuristic import HeuristicDistributor
from repro.domain.device import Device, DeviceClass
from repro.domain.domain import DomainServer
from repro.domain.space import SmartSpace
from repro.graph.abstract import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    PinConstraint,
)
from repro.graph.service_graph import ServiceComponent
from repro.network.links import LinkClass
from repro.qos.translation import default_catalog
from repro.qos.vectors import QoSVector
from repro.resources.vectors import ResourceVector
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.repository import ComponentRepository

VIDEO_RATE_FPS = 25.0
AUDIO_RATE_FPS = 6.0
VIDEO_MBPS = 3.0
AUDIO_MBPS = 0.3


@dataclass
class ConferencingTestbed:
    """The video-conferencing environment, wired together."""

    space: SmartSpace
    server: DomainServer
    configurator: ServiceConfigurator
    repository: ComponentRepository
    devices: Dict[str, Device]


def _build_conferencing_abstract_graph() -> AbstractServiceGraph:
    graph = AbstractServiceGraph(name="video-conferencing")
    graph.add_spec(
        AbstractComponentSpec(
            "video-recorder", "video_recorder", attributes=(("media", "video"),),
            pin=PinConstraint(device_id="workstation1"),
        )
    )
    graph.add_spec(
        AbstractComponentSpec(
            "audio-recorder", "audio_recorder", attributes=(("media", "audio"),),
            pin=PinConstraint(device_id="workstation1"),
        )
    )
    graph.add_spec(AbstractComponentSpec("gateway", "conference_gateway"))
    graph.add_spec(AbstractComponentSpec("lipsync", "lipsync"))
    graph.add_spec(
        AbstractComponentSpec(
            "video-player", "video_player", attributes=(("media", "video"),),
            required_output=QoSVector(frame_rate=VIDEO_RATE_FPS),
            pin=PinConstraint(role="client"),
        )
    )
    graph.add_spec(
        AbstractComponentSpec(
            "audio-player", "conference_audio_player",
            attributes=(("media", "audio"),),
            required_output=QoSVector(frame_rate=AUDIO_RATE_FPS),
            pin=PinConstraint(role="client"),
        )
    )
    graph.connect("video-recorder", "gateway", VIDEO_MBPS)
    graph.connect("audio-recorder", "gateway", AUDIO_MBPS)
    graph.connect("gateway", "lipsync", VIDEO_MBPS + AUDIO_MBPS)
    graph.connect("lipsync", "video-player", VIDEO_MBPS)
    graph.connect("lipsync", "audio-player", AUDIO_MBPS)
    return graph


_CONFERENCING_TEMPLATE = _build_conferencing_abstract_graph()


def conferencing_abstract_graph() -> AbstractServiceGraph:
    """Recorders → gateway → lipsync → players (a DAG, not a chain).

    Each call returns a fresh copy of one module-level template, so every
    request of this class shares the template's structure key.
    """
    return _CONFERENCING_TEMPLATE.copy()


def conferencing_request(
    testbed: ConferencingTestbed, client_device: str = "workstation3"
) -> CompositionRequest:
    """The user's request: video at 25 fps, audio at 6 fps, at the client."""
    device = testbed.devices[client_device]
    return CompositionRequest(
        abstract_graph=conferencing_abstract_graph(),
        user_qos=QoSVector(frame_rate=(1.0, 30.0)),
        client_device_id=client_device,
        client_device_class=device.device_class,
        preferred_devices=tuple(sorted(testbed.devices)),
    )


def _component(
    service_type: str,
    media: str = "",
    rate: float = 0.0,
    memory: float = 24.0,
    cpu: float = 0.2,
    code_kb: float = 2800.0,
    state_kb: float = 0.0,
    qos_input: QoSVector = QoSVector(),
    qos_output: QoSVector = None,
) -> ServiceComponent:
    attributes = (("media", media),) if media else ()
    if qos_output is None:
        qos_output = (
            QoSVector(format="MJPEG", frame_rate=rate) if rate > 0 else QoSVector()
        )
    return ServiceComponent(
        component_id=f"template/{service_type}",
        service_type=service_type,
        qos_input=qos_input,
        qos_output=qos_output,
        resources=ResourceVector(memory=memory, cpu=cpu),
        code_size_kb=code_kb,
        state_size_kb=state_kb,
        attributes=attributes,
    )


def build_conferencing_testbed() -> ConferencingTestbed:
    """Three workstations on fast ethernet plus the component repository.

    No component is pre-installed anywhere: every deployment downloads its
    code from the repository server.
    """
    space = SmartSpace()
    server = space.create_domain("conference-room")
    devices: Dict[str, Device] = {}
    for name in ("workstation1", "workstation2", "workstation3"):
        devices[name] = Device(
            name,
            DeviceClass.WORKSTATION,
            capacity=ResourceVector(memory=512.0, cpu=4.0),
        )
        server.join(devices[name])

    net = server.network
    net.add_device("lan-switch")
    for name in devices:
        net.connect(name, "lan-switch", LinkClass.FAST_ETHERNET)
    net.connect("repo-server", "lan-switch", LinkClass.FAST_ETHERNET)

    repository = ComponentRepository(host_device="repo-server")

    registry = server.domain.registry
    templates = {
        "video_recorder": _component(
            "video_recorder", media="video", rate=VIDEO_RATE_FPS,
            memory=48.0, cpu=0.6, code_kb=3200.0,
        ),
        "audio_recorder": _component(
            "audio_recorder", media="audio", rate=AUDIO_RATE_FPS,
            memory=16.0, cpu=0.2, code_kb=1600.0,
        ),
        "conference_gateway": _component(
            "conference_gateway", memory=64.0, cpu=0.8, code_kb=4000.0,
            qos_input=QoSVector(frame_rate=(1.0, 60.0)),
            qos_output=QoSVector(format="MJPEG", frame_rate=(10.0, 30.0)),
        ),
        "lipsync": _component(
            "lipsync", memory=32.0, cpu=0.5, code_kb=2400.0,
            qos_input=QoSVector(frame_rate=(1.0, 60.0)),
            qos_output=QoSVector(format="MJPEG", frame_rate=(10.0, 30.0)),
        ),
        "video_player": _component(
            "video_player", media="video", rate=VIDEO_RATE_FPS,
            memory=40.0, cpu=0.7, code_kb=3600.0, state_kb=16.0,
            qos_input=QoSVector(format="MJPEG", frame_rate=(10.0, 30.0)),
        ),
        "conference_audio_player": _component(
            "conference_audio_player", media="audio", rate=AUDIO_RATE_FPS,
            memory=12.0, cpu=0.15, code_kb=1200.0, state_kb=8.0,
            qos_input=QoSVector(format="MJPEG", frame_rate=(1.0, 30.0)),
        ),
    }
    for service_type, template in templates.items():
        registry.register(
            ServiceDescription(
                service_type=service_type,
                provider_id=f"{service_type}@repository",
                component_template=template,
                attributes=template.attributes,
            )
        )
        repository.register_package(service_type, template.code_size_kb)

    composer = ServiceComposer(
        server.discovery, CorrectionPolicy(catalog=default_catalog())
    )
    distributor = ServiceDistributor(HeuristicDistributor(), CostWeights())
    configurator = ServiceConfigurator(
        server, composer, distributor, repository=repository
    )
    return ConferencingTestbed(
        space=space,
        server=server,
        configurator=configurator,
        repository=repository,
        devices=devices,
    )
