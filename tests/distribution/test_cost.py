"""Unit tests for cost aggregation (Definition 3.5 / Equation 4)."""

import pytest

from repro.distribution.cost import (
    CostWeights,
    cost_aggregation,
    marginal_cost,
    network_cost,
)
from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.graph.cuts import Assignment
from repro.resources.vectors import CPU, MEMORY, ResourceVector
from tests.conftest import chain_graph


@pytest.fixture
def env():
    return DistributionEnvironment(
        [
            CandidateDevice("d1", ResourceVector(memory=100.0, cpu=1.0)),
            CandidateDevice("d2", ResourceVector(memory=50.0, cpu=1.0)),
        ],
        bandwidth={("d1", "d2"): 10.0},
    )


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            CostWeights({MEMORY: 0.5, CPU: 0.5}, 0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CostWeights({MEMORY: -0.5, CPU: 1.0}, 0.5)

    def test_uniform_construction(self):
        weights = CostWeights.uniform([MEMORY, CPU])
        assert weights.weight_of(MEMORY) == pytest.approx(1 / 3)
        assert weights.network_weight == pytest.approx(1 / 3)

    def test_network_only_special_case(self):
        weights = CostWeights.network_only()
        assert weights.network_weight == 1.0
        assert weights.weight_of(MEMORY) == 0.0


class TestEquationFour:
    def test_hand_computed_value(self, env):
        # One 10MB/0.1cpu component per device, one 2 Mbps cut edge.
        graph = chain_graph("a", "b", throughput=2.0)
        assignment = Assignment({"a": "d1", "b": "d2"})
        weights = CostWeights({MEMORY: 0.4, CPU: 0.3}, 0.3)
        expected = (
            0.4 * 10 / 100 + 0.3 * 0.1 / 1.0  # d1
            + 0.4 * 10 / 50 + 0.3 * 0.1 / 1.0  # d2
            + 0.3 * 2.0 / 10.0  # network
        )
        assert cost_aggregation(graph, assignment, env, weights) == pytest.approx(
            expected
        )

    def test_colocated_assignment_has_no_network_term(self, env):
        graph = chain_graph("a", "b", throughput=2.0)
        colocated = Assignment({"a": "d1", "b": "d1"})
        weights = CostWeights({MEMORY: 0.4, CPU: 0.3}, 0.3)
        assert network_cost(graph, colocated, env, weights) == 0.0

    def test_scarcer_resource_costs_more(self, env):
        graph = chain_graph("a")
        weights = CostWeights({MEMORY: 1.0}, 0.0)
        on_big = cost_aggregation(graph, Assignment({"a": "d1"}), env, weights)
        on_small = cost_aggregation(graph, Assignment({"a": "d2"}), env, weights)
        assert on_small > on_big

    def test_zero_availability_with_demand_is_infinite(self):
        env = DistributionEnvironment(
            [CandidateDevice("d", ResourceVector(cpu=1.0))]
        )
        graph = chain_graph("a")  # needs memory the device lacks
        weights = CostWeights({MEMORY: 1.0}, 0.0)
        assert cost_aggregation(graph, Assignment({"a": "d"}), env, weights) == float(
            "inf"
        )

    def test_zero_bandwidth_with_traffic_is_infinite(self):
        env = DistributionEnvironment(
            [
                CandidateDevice("d1", ResourceVector(memory=100.0, cpu=1.0)),
                CandidateDevice("d2", ResourceVector(memory=100.0, cpu=1.0)),
            ],
            bandwidth={},
        )
        graph = chain_graph("a", "b", throughput=1.0)
        assignment = Assignment({"a": "d1", "b": "d2"})
        assert cost_aggregation(graph, assignment, env) == float("inf")

    def test_infinite_bandwidth_contributes_zero(self):
        env = DistributionEnvironment(
            [
                CandidateDevice("d1", ResourceVector(memory=100.0, cpu=1.0)),
                CandidateDevice("d2", ResourceVector(memory=100.0, cpu=1.0)),
            ]
        )
        graph = chain_graph("a", "b", throughput=1.0)
        assignment = Assignment({"a": "d1", "b": "d2"})
        weights = CostWeights({}, 1.0)
        assert cost_aggregation(graph, assignment, env, weights) == 0.0

    def test_theorem1_reduction_counts_cut_capacity(self, env):
        # With w_i = 0 and unit-ish bandwidth, CA is proportional to the
        # total cut throughput — the directed multiway-cut objective.
        graph = chain_graph("a", "b", throughput=4.0)
        weights = CostWeights.network_only()
        cut = cost_aggregation(graph, Assignment({"a": "d1", "b": "d2"}), env, weights)
        uncut = cost_aggregation(graph, Assignment({"a": "d1", "b": "d1"}), env, weights)
        assert cut == pytest.approx(4.0 / 10.0)
        assert uncut == 0.0


class TestMarginalCost:
    def test_sums_to_total(self, env):
        graph = chain_graph("a", "b", "c", throughput=2.0)
        weights = CostWeights({MEMORY: 0.4, CPU: 0.3}, 0.3)
        placements = {}
        total = 0.0
        for cid, device in (("a", "d1"), ("b", "d2"), ("c", "d1")):
            total += marginal_cost(graph, placements, env, weights, cid, device)
            placements[cid] = device
        full = cost_aggregation(graph, Assignment(placements), env, weights)
        assert total == pytest.approx(full)

    def test_marginal_is_order_independent_in_sum(self, env):
        graph = chain_graph("a", "b", throughput=2.0)
        weights = CostWeights({MEMORY: 0.5}, 0.5)
        placements = {}
        forward = marginal_cost(graph, placements, env, weights, "a", "d1")
        placements["a"] = "d1"
        forward += marginal_cost(graph, placements, env, weights, "b", "d2")

        placements = {}
        backward = marginal_cost(graph, placements, env, weights, "b", "d2")
        placements["b"] = "d2"
        backward += marginal_cost(graph, placements, env, weights, "a", "d1")
        assert forward == pytest.approx(backward)
