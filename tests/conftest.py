"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.resources.vectors import ResourceVector
from repro.scenarios import load_catalog_scenario, run_sweep


def audio_lab_sweep(
    multipliers,
    shards=(1,),
    seed: int = 42,
    horizon_s: float = 300.0,
    router: str = "hash",
    **run_kwargs,
):
    """The ``audio_lab`` scenario at every shard count × load multiplier."""
    lab = load_catalog_scenario("audio_lab")
    lab = replace(lab, seed=seed, cluster=replace(lab.cluster, router=router))
    return run_sweep(
        lab, multipliers, shards=shards, horizon_s=horizon_s, **run_kwargs
    )


def audio_lab_point(shards: int, multiplier: float, **kwargs):
    """One ``audio_lab`` scenario run at a shard count and load multiplier."""
    return audio_lab_sweep((multiplier,), shards=(shards,), **kwargs).points[0]


@pytest.fixture
def rng():
    """A deterministic RNG for tests that sample."""
    return random.Random(1234)


def make_component(
    component_id: str,
    memory: float = 10.0,
    cpu: float = 0.1,
    **kwargs,
) -> ServiceComponent:
    """A small component with the given resources."""
    return ServiceComponent(
        component_id=component_id,
        service_type=kwargs.pop("service_type", "test"),
        resources=ResourceVector(memory=memory, cpu=cpu),
        **kwargs,
    )


def chain_graph(*component_ids: str, throughput: float = 1.0) -> ServiceGraph:
    """A linear graph over the given ids."""
    graph = ServiceGraph(name="chain")
    for cid in component_ids:
        graph.add_component(make_component(cid))
    for a, b in zip(component_ids, component_ids[1:]):
        graph.add_edge(ServiceEdge(a, b, throughput))
    return graph


@pytest.fixture
def diamond_graph() -> ServiceGraph:
    """A diamond: src -> (left, right) -> sink."""
    graph = ServiceGraph(name="diamond")
    for cid in ("src", "left", "right", "sink"):
        graph.add_component(make_component(cid))
    graph.connect("src", "left", 2.0)
    graph.connect("src", "right", 1.0)
    graph.connect("left", "sink", 2.0)
    graph.connect("right", "sink", 1.0)
    return graph


@pytest.fixture
def two_device_env() -> DistributionEnvironment:
    """A big and a small device with a 10 Mbps pair."""
    return DistributionEnvironment(
        [
            CandidateDevice("big", ResourceVector(memory=256.0, cpu=3.0)),
            CandidateDevice("small", ResourceVector(memory=32.0, cpu=1.0)),
        ],
        bandwidth={("big", "small"): 10.0},
    )


@pytest.fixture
def three_device_env() -> DistributionEnvironment:
    """The Figure 5 trio."""
    return DistributionEnvironment(
        [
            CandidateDevice("desktop", ResourceVector(memory=256.0, cpu=3.0)),
            CandidateDevice("laptop", ResourceVector(memory=128.0, cpu=1.0)),
            CandidateDevice("pda", ResourceVector(memory=32.0, cpu=0.5)),
        ],
        bandwidth={
            ("desktop", "laptop"): 50.0,
            ("desktop", "pda"): 5.0,
            ("laptop", "pda"): 5.0,
        },
    )
