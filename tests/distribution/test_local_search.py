"""Unit tests for local-search refinement."""

import random

import pytest

from repro.distribution.cost import CostWeights
from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    fits_into,
)
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.local_search import LocalSearchDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.resources.vectors import ResourceVector
from tests.conftest import chain_graph


CONFIG = RandomGraphConfig(
    node_count=(8, 14),
    memory_mb=(6.0, 26.0),
    cpu_fraction=(0.04, 0.25),
    throughput_mbps=(0.05, 0.5),
)


def env():
    return DistributionEnvironment(
        [
            CandidateDevice("pc", ResourceVector(memory=256.0, cpu=3.0)),
            CandidateDevice("pda", ResourceVector(memory=32.0, cpu=1.0)),
        ],
        bandwidth={("pc", "pda"): 10.0},
    )


class TestLocalSearch:
    def test_never_worse_than_base(self):
        weights = CostWeights()
        environment = env()
        for seed in range(12):
            graph = random_service_graph(random.Random(seed), CONFIG)
            base = HeuristicDistributor().distribute(graph, environment, weights)
            refined = LocalSearchDistributor().distribute(
                graph, environment, weights
            )
            if base.feasible:
                assert refined.feasible
                assert refined.cost <= base.cost + 1e-9

    def test_never_better_than_optimal(self):
        weights = CostWeights()
        environment = env()
        for seed in range(8):
            graph = random_service_graph(random.Random(seed), CONFIG)
            best = OptimalDistributor().distribute(graph, environment, weights)
            refined = LocalSearchDistributor().distribute(
                graph, environment, weights
            )
            if refined.feasible:
                assert best.feasible
                assert best.cost <= refined.cost + 1e-9

    def test_closes_gap_on_some_instances(self):
        weights = CostWeights()
        environment = env()
        improved = 0
        for seed in range(25):
            graph = random_service_graph(random.Random(seed), CONFIG)
            base = HeuristicDistributor().distribute(graph, environment, weights)
            refined = LocalSearchDistributor().distribute(
                graph, environment, weights
            )
            if base.feasible and refined.cost < base.cost - 1e-9:
                improved += 1
        assert improved > 0

    def test_refined_results_remain_feasible(self):
        weights = CostWeights()
        environment = env()
        for seed in range(10):
            graph = random_service_graph(random.Random(seed), CONFIG)
            refined = LocalSearchDistributor().distribute(
                graph, environment, weights
            )
            if refined.feasible:
                assert fits_into(graph, refined.assignment, environment)

    def test_pins_never_moved(self):
        graph = chain_graph("a", "b", "c")
        graph.update_component(graph.component("b").with_pin("pda"))
        refined = LocalSearchDistributor().distribute(graph, env())
        assert refined.assignment["b"] == "pda"

    def test_infeasible_base_passed_through(self):
        graph = chain_graph("a")
        tiny = DistributionEnvironment(
            [CandidateDevice("tiny", ResourceVector(memory=0.5, cpu=0.01))]
        )
        refined = LocalSearchDistributor().distribute(graph, tiny)
        assert not refined.feasible

    def test_relocations_only_mode(self):
        graph = random_service_graph(random.Random(3), CONFIG)
        no_swaps = LocalSearchDistributor(use_swaps=False).distribute(
            graph, env()
        )
        assert no_swaps.feasible

    def test_invalid_rounds(self):
        with pytest.raises(ValueError):
            LocalSearchDistributor(max_rounds=0)
