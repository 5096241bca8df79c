"""Shared fixtures for the domain-configuration-service tests."""

import pytest

from repro.apps.audio_on_demand import (
    audio_degradation_ladder as audio_ladder,  # noqa: F401 (re-exported)
)
from repro.domain.device import Device, DeviceClass
from repro.domain.space import SmartSpace
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.network.links import LinkClass
from repro.resources.vectors import ResourceVector
from repro.server.ledger import ReservationLedger


def build_pair_domain(memory: float = 100.0, cpu: float = 2.0):
    """Two devices on one fast-ethernet link — the smallest ledger arena."""
    space = SmartSpace()
    server = space.create_domain("pair")
    for name in ("d1", "d2"):
        server.join(
            Device(
                name,
                DeviceClass.PC,
                capacity=ResourceVector(memory=memory, cpu=cpu),
            )
        )
    server.network.connect("d1", "d2", LinkClass.FAST_ETHERNET)
    return server


def stream_graph(
    memory: float = 40.0, cpu: float = 0.5, throughput: float = 10.0
) -> ServiceGraph:
    """A two-component pipeline: src on d1, sink on d2."""
    graph = ServiceGraph(name="pipeline")
    for cid in ("src", "sink"):
        graph.add_component(
            ServiceComponent(
                component_id=cid,
                service_type=cid,
                resources=ResourceVector(memory=memory, cpu=cpu),
            )
        )
    graph.add_edge(ServiceEdge("src", "sink", throughput))
    return graph


def split_assignment() -> Assignment:
    return Assignment({"src": "d1", "sink": "d2"})


@pytest.fixture
def pair_server():
    return build_pair_domain()


@pytest.fixture
def ledger(pair_server):
    return ReservationLedger(pair_server)
