"""The mobile audio-on-demand application (Figures 3 and 4, events 1–3).

The scenario from Section 4: the user starts "mobile audio-on-demand" on
desktop1 requesting CD-quality music (event 1), switches to a PDA over a
wireless link — music continues from the interruption point through a
dynamically inserted MPEG2wav transcoder (event 2) — and later switches
back to another desktop (event 3). All components are pre-installed, so no
dynamic downloading happens.

:func:`build_audio_testbed` assembles the whole environment: devices with
the paper's (normalised) availability vectors, the wired/wireless
topology, the service registry with the audio server and the two player
variants, and the integrated configurator. :func:`build_audio_cluster`
puts one such testbed behind each shard of a serving cluster, with
:func:`audio_degradation_ladder` as every shard's ladder. The same lab
under load is the ``audio_lab`` catalog scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

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
from repro.observability.metrics import MetricsRegistry
from repro.qos.translation import default_catalog
from repro.qos.vectors import QoSVector
from repro.resources.vectors import ResourceVector
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.degradation import DegradationLadder, QoSLevel
from repro.server.cluster import DomainCluster, make_router
from repro.server.service import BatchPolicy

AUDIO_RATE_FPS = 40.0
STREAM_MBPS = 1.4

#: Arrival rate (requests/s) that roughly saturates the testbed at load
#: multiplier 1.0 (the ``audio_lab`` scenario's ``arrivals.rate_per_s``).
BASE_RATE_PER_S = 0.2

#: Clients that load tests cycle through (the PDA is excluded: its
#: sessions exercise transcoder insertion, which figure3 already covers).
CLIENT_CYCLE = ("desktop1", "desktop2", "desktop3")


@dataclass
class AudioTestbed:
    """Everything the audio-on-demand experiments need, wired together."""

    space: SmartSpace
    server: DomainServer
    configurator: ServiceConfigurator
    devices: Dict[str, Device]


def _build_audio_abstract_graph() -> AbstractServiceGraph:
    graph = AbstractServiceGraph(name="mobile-audio-on-demand")
    graph.add_spec(
        AbstractComponentSpec(
            spec_id="audio-server",
            service_type="audio_server",
            attributes=(("media", "audio"),),
        )
    )
    graph.add_spec(
        AbstractComponentSpec(
            spec_id="audio-player",
            service_type="audio_player",
            attributes=(("media", "audio"),),
            required_output=QoSVector(frame_rate=(20.0, 48.0)),
            pin=PinConstraint(role="client"),
        )
    )
    graph.connect("audio-server", "audio-player", STREAM_MBPS)
    return graph


_AUDIO_TEMPLATE = _build_audio_abstract_graph()


def audio_abstract_graph() -> AbstractServiceGraph:
    """The developer's abstract description: server → player (client-pinned).

    Each call returns a fresh copy of one module-level template, so every
    request of this class shares the template's structure key.
    """
    return _AUDIO_TEMPLATE.copy()


def audio_request(testbed: AudioTestbed, client_device: str) -> CompositionRequest:
    """A configuration request for the user sitting at ``client_device``."""
    device = testbed.devices[client_device]
    return CompositionRequest(
        abstract_graph=audio_abstract_graph(),
        user_qos=QoSVector(frame_rate=(20.0, 48.0)),
        client_device_id=client_device,
        client_device_class=device.device_class,
        preferred_devices=tuple(sorted(testbed.devices)),
    )


def _server_template() -> ServiceComponent:
    return ServiceComponent(
        component_id="template/audio-server",
        service_type="audio_server",
        qos_output=QoSVector(format="MPEG", frame_rate=AUDIO_RATE_FPS),
        resources=ResourceVector(memory=48.0, cpu=0.25),
        code_size_kb=900.0,
        attributes=(("media", "audio"),),
    )


def _desktop_player_template() -> ServiceComponent:
    """An MPEG-capable player for wired PCs (also accepts WAV)."""
    return ServiceComponent(
        component_id="template/player-desktop",
        service_type="audio_player",
        qos_input=QoSVector(
            format={"MPEG", "WAV"}, frame_rate=(10.0, 50.0)
        ),
        qos_output=QoSVector(frame_rate=AUDIO_RATE_FPS),
        resources=ResourceVector(memory=16.0, cpu=0.15),
        code_size_kb=500.0,
        state_size_kb=24.0,
        attributes=(("media", "audio"),),
    )


def _pda_player_template() -> ServiceComponent:
    """The Jornada's lightweight player: WAV only."""
    return ServiceComponent(
        component_id="template/player-pda",
        service_type="audio_player",
        qos_input=QoSVector(format="WAV", frame_rate=(10.0, 50.0)),
        qos_output=QoSVector(frame_rate=AUDIO_RATE_FPS),
        resources=ResourceVector(memory=6.0, cpu=0.1),
        code_size_kb=200.0,
        state_size_kb=24.0,
        attributes=(("media", "audio"),),
    )


def build_audio_testbed(
    preinstall: bool = True,
    clock: Optional[Callable[[], float]] = None,
) -> AudioTestbed:
    """Assemble the Figure 3/4 audio environment.

    Three desktops on fast ethernet plus a Jornada PDA behind a wireless
    access point. Availability vectors are the paper's normalised figures
    (desktop ``[256MB, 300%]``, PDA ``[32MB, 50%]``). With
    ``preinstall=True`` (the paper's setting for this app) every device
    already has all component code, so no downloading overhead occurs.
    ``clock`` injects a time source into the domain server (the chaos
    experiments pass the simulation clock so event timestamps line up).
    """
    space = SmartSpace(clock=clock)
    server = space.create_domain("lab")
    component_types = ["audio_server", "audio_player", "MPEG2wav", "buffer"]

    devices: Dict[str, Device] = {}
    for name in ("desktop1", "desktop2", "desktop3"):
        devices[name] = Device(
            name,
            DeviceClass.PC,
            capacity=ResourceVector(memory=256.0, cpu=3.0),
            installed_components=component_types if preinstall else (),
        )
    devices["jornada"] = Device(
        "jornada",
        DeviceClass.PDA,
        capacity=ResourceVector(memory=32.0, cpu=0.5),
        installed_components=component_types if preinstall else (),
    )
    for device in devices.values():
        server.join(device)

    net = server.network
    net.add_device("lan-switch")
    for name in ("desktop1", "desktop2", "desktop3"):
        net.connect(name, "lan-switch", LinkClass.FAST_ETHERNET)
    net.add_device("access-point")
    net.connect("access-point", "lan-switch", LinkClass.FAST_ETHERNET)
    net.connect("jornada", "access-point", LinkClass.WLAN)

    registry = server.domain.registry
    registry.register(
        ServiceDescription(
            service_type="audio_server",
            provider_id="audio-server@desktop1",
            component_template=_server_template(),
            attributes=(("media", "audio"), ("format", "MPEG")),
            hosted_on="desktop1",
        )
    )
    registry.register(
        ServiceDescription(
            service_type="audio_player",
            provider_id="player/desktop",
            component_template=_desktop_player_template(),
            attributes=(("media", "audio"),),
            platforms=frozenset({DeviceClass.PC, DeviceClass.WORKSTATION,
                                 DeviceClass.LAPTOP}),
        )
    )
    registry.register(
        ServiceDescription(
            service_type="audio_player",
            provider_id="player/pda",
            component_template=_pda_player_template(),
            attributes=(("media", "audio"),),
            platforms=frozenset({DeviceClass.PDA}),
        )
    )

    composer = ServiceComposer(
        server.discovery, CorrectionPolicy(catalog=default_catalog())
    )
    distributor = ServiceDistributor(HeuristicDistributor(), CostWeights())
    configurator = ServiceConfigurator(server, composer, distributor)
    return AudioTestbed(
        space=space, server=server, configurator=configurator, devices=devices
    )


def audio_degradation_ladder() -> DegradationLadder:
    """Three demand levels over the composable QoS range.

    Every level keeps the user QoS the composer can satisfy and only
    scales resource demand, modelling rate-proportional admission at
    reduced quality.
    """
    qos = QoSVector(frame_rate=(20.0, 48.0))
    return DegradationLadder.of(
        QoSLevel(label="full", user_qos=qos, demand_scale=1.0),
        QoSLevel(label="reduced", user_qos=qos, demand_scale=0.7),
        QoSLevel(label="economy", user_qos=qos, demand_scale=0.45),
    )


def build_audio_cluster(
    shard_count: int,
    router: str = "hash",
    queue_capacity: int = 16,
    clock: Optional[Callable[[], float]] = None,
    registry: Optional[MetricsRegistry] = None,
    batched: bool = False,
    batch: Optional[BatchPolicy] = None,
) -> Tuple[DomainCluster, List[AudioTestbed]]:
    """One audio testbed + service per shard behind a shared registry.

    Returns ``(cluster, testbeds)``. Shards share device names and
    registries, so ``testbeds[0]`` composes every request; the serving
    shard's own configurator deploys it. ``batched`` chooses the shards'
    chunk policy (``batch``, default :class:`BatchPolicy()`, or one
    request per flush).
    """
    testbeds = [build_audio_testbed() for _ in range(shard_count)]
    cluster = DomainCluster.build(
        [testbed.configurator for testbed in testbeds],
        router=make_router(router, shard_count),
        registry=registry,
        batched=batched,
        batch=batch,
        ladder=audio_degradation_ladder(),
        queue_capacity=queue_capacity,
        clock=clock,
        skip_downloads=True,
    )
    return cluster, testbeds
