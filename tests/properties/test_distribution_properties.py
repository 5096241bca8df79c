"""Property-based tests for the distribution tier's guarantees."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.distribution.baselines import RandomDistributor
from repro.distribution.cost import CostWeights, cost_aggregation
from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    fit_violations,
    fits_into,
)
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.graph.cuts import Assignment
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.graph.service_graph import ServiceComponent, ServiceGraph
from repro.resources.vectors import ResourceVector

seeds = st.integers(min_value=0, max_value=10_000)
config = RandomGraphConfig(
    node_count=(3, 9),
    out_degree=(1, 3),
    memory_mb=(2.0, 20.0),
    cpu_fraction=(0.02, 0.2),
    throughput_mbps=(0.05, 0.8),
)


def environment():
    return DistributionEnvironment(
        [
            CandidateDevice("big", ResourceVector(memory=120.0, cpu=1.5)),
            CandidateDevice("small", ResourceVector(memory=40.0, cpu=0.8)),
        ],
        bandwidth={("big", "small"): 8.0},
    )


class TestFeasibilityContract:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_feasible_results_actually_fit(self, seed):
        graph = random_service_graph(random.Random(seed), config)
        env = environment()
        for strategy in (
            HeuristicDistributor(),
            OptimalDistributor(),
            RandomDistributor(rng=random.Random(seed), attempts=10),
        ):
            result = strategy.distribute(graph, env, CostWeights())
            if result.feasible:
                assert fits_into(graph, result.assignment, env)
                assert result.assignment.covers(graph)

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_reported_cost_matches_assignment(self, seed):
        graph = random_service_graph(random.Random(seed), config)
        env = environment()
        weights = CostWeights()
        result = HeuristicDistributor().distribute(graph, env, weights)
        if result.feasible:
            assert result.cost == pytest.approx(
                cost_aggregation(graph, result.assignment, env, weights)
            )


class TestOptimalityContract:
    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_optimal_never_worse_than_heuristic(self, seed):
        graph = random_service_graph(random.Random(seed), config)
        env = environment()
        weights = CostWeights()
        best = OptimalDistributor().distribute(graph, env, weights)
        found = HeuristicDistributor().distribute(graph, env, weights)
        if found.feasible:
            assert best.feasible
            assert best.cost <= found.cost + 1e-9

    @given(seeds)
    @settings(max_examples=25, deadline=None)
    def test_optimal_never_worse_than_random(self, seed):
        graph = random_service_graph(random.Random(seed), config)
        env = environment()
        weights = CostWeights()
        best = OptimalDistributor().distribute(graph, env, weights)
        sampled = RandomDistributor(
            rng=random.Random(seed + 1), attempts=10
        ).distribute(graph, env, weights)
        if sampled.feasible:
            assert best.feasible
            assert best.cost <= sampled.cost + 1e-9

    @given(seeds)
    @settings(max_examples=15, deadline=None)
    def test_feasibility_is_monotone_in_capacity(self, seed):
        graph = random_service_graph(random.Random(seed), config)
        tight = environment()
        roomy = DistributionEnvironment(
            [
                CandidateDevice("big", ResourceVector(memory=1e5, cpu=1e3)),
                CandidateDevice("small", ResourceVector(memory=1e5, cpu=1e3)),
            ],
            bandwidth={("big", "small"): 1e6},
        )
        tight_result = OptimalDistributor().distribute(graph, tight)
        roomy_result = OptimalDistributor().distribute(graph, roomy)
        if tight_result.feasible:
            assert roomy_result.feasible


DEVICES = ("d0", "d1", "d2")


@st.composite
def pinned_instances(draw):
    """A small graph, some of it pinned, over a tight random environment."""
    amounts = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    device_count = draw(st.integers(min_value=1, max_value=len(DEVICES)))
    devices = DEVICES[:device_count]
    env = DistributionEnvironment(
        [
            CandidateDevice(
                device_id,
                ResourceVector(memory=draw(amounts) * 40.0, cpu=draw(amounts)),
            )
            for device_id in devices
        ],
        default_bandwidth=draw(st.sampled_from([0.0, 1.0, float("inf")])),
    )
    graph = ServiceGraph(name="pinned")
    count = draw(st.integers(min_value=1, max_value=5))
    for index in range(count):
        graph.add_component(
            ServiceComponent(
                component_id=f"c{index}",
                service_type="test",
                resources=ResourceVector(
                    memory=draw(amounts) * 30.0, cpu=draw(amounts)
                ),
                pinned_to=draw(st.sampled_from((None,) + devices)),
            )
        )
    for index in range(1, count):
        graph.connect(f"c{draw(st.integers(0, index - 1))}", f"c{index}", 0.5)
    return graph, env


class TestRefusalAtThePins:
    @given(pinned_instances(), seeds)
    @settings(max_examples=200, deadline=None)
    def test_refusal_is_a_proof_of_infeasibility(self, instance, seed):
        graph, env = instance
        result = HeuristicDistributor().distribute(graph, env)
        if result.assignment.covers(graph):
            return  # the greedy ran: the pins alone fit
        assert not result.feasible
        assert result.violations
        assert not OptimalDistributor().distribute(graph, env).feasible
        # Whatever the greedy would have added, every refused pair stays
        # overflowed, with at least the pins' demand.
        rng = random.Random(seed)
        for _ in range(5):
            completion = {
                c.component_id: c.pinned_to or rng.choice(env.device_ids())
                for c in graph
            }
            found = {
                (v.subject, v.detail): v.demand
                for v in fit_violations(graph, Assignment(completion), env)
                if v.kind == "resource"
            }
            for refused in result.violations:
                assert found[(refused.subject, refused.detail)] >= refused.demand
