"""Unit tests for the strategy interface and the ServiceDistributor facade."""

import random

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.distribution import distributor as distributor_module
from repro.distribution.baselines import FixedDistributor, RandomDistributor
from repro.distribution.cost import CostWeights
from repro.distribution.distributor import (
    DistributionResult,
    ServiceDistributor,
    validate_pins,
)
from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.local_search import LocalSearchDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.domain.device import Device
from repro.network.links import LinkClass
from repro.network.topology import NetworkTopology
from repro.resources.vectors import ResourceVector
from tests.conftest import chain_graph

STRATEGIES = {
    "heuristic": HeuristicDistributor,
    "optimal": OptimalDistributor,
    "random": lambda: RandomDistributor(random.Random(0)),
    "fixed": FixedDistributor,
    "local-search": LocalSearchDistributor,
}


def _live_environment(devices, topology=None):
    """Snapshot live devices at their current availability."""
    candidates = [CandidateDevice(d.device_id, d.available()) for d in devices]
    if topology is None:
        return DistributionEnvironment(candidates)
    return DistributionEnvironment(
        candidates, bandwidth=topology.available_bandwidth
    )


class TestResultInvariants:
    def test_feasible_result_requires_assignment(self):
        with pytest.raises(ValueError):
            DistributionResult(
                strategy="x", assignment=None, feasible=True, cost=1.0
            )


class TestValidatePins:
    def test_unknown_pin_rejected(self, two_device_env):
        graph = chain_graph("a")
        graph.update_component(graph.component("a").with_pin("ghost"))
        with pytest.raises(ValueError):
            validate_pins(graph, two_device_env)

    def test_known_pin_passes(self, two_device_env):
        graph = chain_graph("a")
        graph.update_component(graph.component("a").with_pin("big"))
        validate_pins(graph, two_device_env)

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_direct_call_rejects_unknown_pin_like_the_facade(
        self, name, two_device_env
    ):
        graph = chain_graph("a", "b")
        graph.update_component(graph.component("a").with_pin("ghost"))
        message = "component 'a' pinned to unknown device 'ghost'"
        strategy = STRATEGIES[name]()
        with pytest.raises(ValueError, match=message):
            strategy.distribute(graph, two_device_env)
        with pytest.raises(ValueError, match=message):
            ServiceDistributor(strategy).distribute(graph, two_device_env)

    def test_serving_plan_checks_pins_once(self, monkeypatch):
        testbed = build_audio_testbed()
        configurator = testbed.configurator
        calls = []
        check = distributor_module.validate_pins

        def counted(graph, environment):
            calls.append(graph)
            check(graph, environment)

        monkeypatch.setattr(distributor_module, "validate_pins", counted)
        request = audio_request(testbed, "desktop2")
        session = configurator.create_session(request)
        planned, failure = configurator.plan(session, request, "admit")
        assert failure is None and planned is not None
        assert len(calls) == 1


class TestFacade:
    def test_distribute_validates_graph(self, two_device_env):
        from repro.graph.service_graph import ServiceGraph

        distributor = ServiceDistributor(HeuristicDistributor())
        with pytest.raises(Exception):
            distributor.distribute(ServiceGraph(), two_device_env)

    def test_distribute_on_environment(self, two_device_env):
        distributor = ServiceDistributor(HeuristicDistributor(), CostWeights())
        result = distributor.distribute(chain_graph("a", "b"), two_device_env)
        assert result.feasible

    # The next four run the facade over environments snapshotted from live
    # Device objects, the way ServiceConfigurator builds its environment.
    def test_distribute_on_live_devices(self):
        device_a = Device("d1", capacity=ResourceVector(memory=100.0, cpu=1.0))
        device_b = Device("d2", capacity=ResourceVector(memory=100.0, cpu=1.0))
        distributor = ServiceDistributor(HeuristicDistributor())
        result = distributor.distribute(
            chain_graph("a", "b"), _live_environment([device_a, device_b])
        )
        assert result.feasible

    def test_live_devices_reflect_current_availability(self):
        device = Device("d1", capacity=ResourceVector(memory=15.0, cpu=1.0))
        device.allocate(ResourceVector(memory=10.0))
        distributor = ServiceDistributor(HeuristicDistributor())
        # Two 10MB components no longer fit the remaining 5MB.
        result = distributor.distribute(
            chain_graph("a", "b"), _live_environment([device])
        )
        assert not result.feasible

    def test_with_topology_bandwidth(self):
        topology = NetworkTopology()
        topology.connect("d1", "d2", LinkClass.WLAN)  # 5 Mbps
        device_a = Device("d1", capacity=ResourceVector(memory=12.0, cpu=1.0))
        device_b = Device("d2", capacity=ResourceVector(memory=12.0, cpu=1.0))
        graph = chain_graph("a", "b", throughput=50.0)  # must colocate, cannot
        distributor = ServiceDistributor(HeuristicDistributor())
        result = distributor.distribute(
            graph, _live_environment([device_a, device_b], topology)
        )
        assert not result.feasible

    def test_accepts_candidate_devices_directly(self):
        distributor = ServiceDistributor(HeuristicDistributor())
        result = distributor.distribute(
            chain_graph("a"),
            DistributionEnvironment(
                [CandidateDevice("solo", ResourceVector(memory=100.0, cpu=1.0))]
            ),
        )
        assert result.feasible
