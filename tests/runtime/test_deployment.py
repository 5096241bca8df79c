"""Unit tests for the deployer and the overhead cost model."""

import pytest

from repro.distribution.distributor import DistributionResult
from repro.domain.device import Device
from repro.graph.cuts import Assignment
from repro.network.links import LinkClass
from repro.network.topology import NetworkTopology
from repro.resources.vectors import ResourceVector
from repro.runtime.deployment import (
    ConfigurationTiming,
    Deployer,
    DeploymentCostModel,
    DeploymentError,
)
from repro.runtime.repository import ComponentRepository
from tests.conftest import chain_graph


@pytest.fixture
def world():
    topology = NetworkTopology()
    topology.connect("d1", "d2", LinkClass.FAST_ETHERNET)
    topology.connect("repo", "d1", LinkClass.FAST_ETHERNET)
    topology.connect("repo", "d2", LinkClass.FAST_ETHERNET)
    devices = {
        "d1": Device("d1", capacity=ResourceVector(memory=100.0, cpu=1.0)),
        "d2": Device("d2", capacity=ResourceVector(memory=100.0, cpu=1.0)),
    }
    return topology, devices


class TestTiming:
    def test_total_is_sum_of_parts(self):
        timing = ConfigurationTiming(10.0, 20.0, 30.0, 5.0, 15.0)
        assert timing.total_ms == 80.0
        assert timing.init_or_handoff_ms == 20.0

    def test_as_dict_keys(self):
        keys = set(ConfigurationTiming().as_dict())
        assert keys == {
            "composition_ms",
            "distribution_ms",
            "download_ms",
            "init_or_handoff_ms",
            "total_ms",
        }

    def test_cost_model_scales_with_work(self):
        model = DeploymentCostModel()

        class FakeComposition:
            def work_units(self):
                return 10

        class SmallComposition:
            def work_units(self):
                return 1

        assert model.composition_time_s(FakeComposition()) > model.composition_time_s(
            SmallComposition()
        )
        big = DistributionResult("s", Assignment({}), False, float("inf"), 100)
        small = DistributionResult("s", Assignment({}), False, float("inf"), 1)
        assert model.distribution_time_s(big) > model.distribution_time_s(small)
        assert model.initialization_time_s(4) == pytest.approx(
            4 * model.initialization_per_component_s
        )


class TestDeploy:
    def test_deploy_leaves_capacity_to_the_ledger(self, world):
        topology, devices = world
        graph = chain_graph("a", "b", throughput=5.0)
        assignment = Assignment({"a": "d1", "b": "d2"})
        report = Deployer().deploy(graph, assignment, devices, topology)
        assert report.assignment is assignment
        assert devices["d1"].allocated.is_zero()
        assert topology.available_bandwidth("d1", "d2") == 100.0

    def test_unknown_device_rolls_back(self, world):
        topology, devices = world
        graph = chain_graph("a", "b")
        assignment = Assignment({"a": "d1", "b": "ghost"})
        with pytest.raises(DeploymentError):
            Deployer().deploy(graph, assignment, devices, topology)
        assert devices["d1"].available()["memory"] == 100.0

    def test_downloads_through_repository(self, world):
        topology, devices = world
        repo = ComponentRepository("repo")
        repo.register_package("test", 800.0)
        graph = chain_graph("a", "b")
        assignment = Assignment({"a": "d1", "b": "d2"})
        report = Deployer(repository=repo).deploy(
            graph, assignment, devices, topology
        )
        assert report.downloaded_count == 2
        assert report.download_s > 0

    def test_skip_downloads_flag(self, world):
        topology, devices = world
        repo = ComponentRepository("repo")
        graph = chain_graph("a", "b")
        assignment = Assignment({"a": "d1", "b": "d1"})
        report = Deployer(repository=repo).deploy(
            graph, assignment, devices, topology, skip_downloads=True
        )
        assert report.downloads == []
        assert report.download_s == 0.0

    def test_initialization_time_reported(self, world):
        topology, devices = world
        graph = chain_graph("a", "b", "c")
        assignment = Assignment({"a": "d1", "b": "d1", "c": "d1"})
        report = Deployer().deploy(graph, assignment, devices, topology)
        assert report.initialization_s == pytest.approx(3 * 0.030)
