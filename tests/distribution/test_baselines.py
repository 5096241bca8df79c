"""Unit tests for the random and fixed baseline distributors."""

import random

import pytest

from repro.distribution.baselines import FixedDistributor, RandomDistributor
from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.distribution.heuristic import HeuristicDistributor
from repro.resources.vectors import ResourceVector
from tests.conftest import chain_graph


class TestRandomDistributor:
    def test_invalid_attempts_rejected(self):
        with pytest.raises(ValueError):
            RandomDistributor(attempts=0)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            RandomDistributor(mode="chaotic")

    def test_finds_feasible_on_easy_instance(self, two_device_env):
        graph = chain_graph("a", "b")
        result = RandomDistributor(rng=random.Random(1)).distribute(
            graph, two_device_env
        )
        assert result.feasible

    def test_respects_pins(self, two_device_env):
        graph = chain_graph("a", "b")
        graph.update_component(graph.component("a").with_pin("small"))
        result = RandomDistributor(rng=random.Random(1)).distribute(
            graph, two_device_env
        )
        assert result.assignment["a"] == "small"

    def test_deterministic_given_seed(self, two_device_env):
        graph = chain_graph("a", "b", "c")
        first = RandomDistributor(rng=random.Random(3)).distribute(
            graph, two_device_env
        )
        second = RandomDistributor(rng=random.Random(3)).distribute(
            graph, two_device_env
        )
        assert first.assignment == second.assignment

    def test_reports_infeasible_after_budget(self):
        graph = chain_graph("a")
        env = DistributionEnvironment(
            [CandidateDevice("tiny", ResourceVector(memory=0.5, cpu=0.001))]
        )
        result = RandomDistributor(rng=random.Random(1), attempts=5).distribute(
            graph, env
        )
        assert not result.feasible
        assert result.evaluations == 5

    def test_fit_mode_avoids_full_devices(self):
        # One device can hold only one component; fit-mode should place
        # the second elsewhere rather than overflow.
        graph = chain_graph("a", "b")
        env = DistributionEnvironment(
            [
                CandidateDevice("one", ResourceVector(memory=12.0, cpu=0.15)),
                CandidateDevice("two", ResourceVector(memory=100.0, cpu=1.0)),
            ],
            bandwidth={("one", "two"): 100.0},
        )
        for seed in range(10):
            result = RandomDistributor(
                rng=random.Random(seed), attempts=1, mode="fit"
            ).distribute(graph, env)
            assert result.feasible

    def test_uniform_mode_blind_to_capacity(self):
        # With a device that fits nothing, uniform sampling eventually
        # places something there and fails with attempts=1 for some seed.
        graph = chain_graph("a", "b", "c", "d")
        env = DistributionEnvironment(
            [
                CandidateDevice("full", ResourceVector(memory=0.0, cpu=0.0)),
                CandidateDevice("ok", ResourceVector(memory=100.0, cpu=1.0)),
            ],
            bandwidth={("full", "ok"): 100.0},
        )
        outcomes = {
            RandomDistributor(rng=random.Random(seed), attempts=1)
            .distribute(graph, env)
            .feasible
            for seed in range(10)
        }
        assert False in outcomes


class TestFixedDistributor:
    def test_first_call_computes_and_caches(self, two_device_env):
        fixed = FixedDistributor(base=HeuristicDistributor())
        graph = chain_graph("a", "b")
        first = fixed.distribute(graph, two_device_env)
        assert first.feasible
        assert fixed.cached_graphs() == 1

    def test_same_graph_name_reuses_placement(self, two_device_env):
        fixed = FixedDistributor(base=HeuristicDistributor())
        graph = chain_graph("a", "b")
        first = fixed.distribute(graph, two_device_env)
        second = fixed.distribute(graph, two_device_env)
        assert first.assignment == second.assignment
        assert second.evaluations == 1  # cache replay, no search

    def test_stale_placement_fails_in_changed_environment(self):
        fixed = FixedDistributor(base=HeuristicDistributor())
        graph = chain_graph("a", "b")
        roomy = DistributionEnvironment(
            [CandidateDevice("d", ResourceVector(memory=100.0, cpu=1.0))]
        )
        assert fixed.distribute(graph, roomy).feasible
        # Device lost most of its memory; the frozen cut no longer fits,
        # and fixed does not re-decide.
        cramped = DistributionEnvironment(
            [CandidateDevice("d", ResourceVector(memory=5.0, cpu=1.0))]
        )
        assert not fixed.distribute(graph, cramped).feasible

    def test_forget_clears_cache(self, two_device_env):
        fixed = FixedDistributor(base=HeuristicDistributor())
        graph = chain_graph("a", "b")
        fixed.distribute(graph, two_device_env)
        fixed.forget(graph.name)
        assert fixed.cached_graphs() == 0

    def test_infeasible_initial_not_cached(self):
        fixed = FixedDistributor(base=HeuristicDistributor())
        graph = chain_graph("a")
        hopeless = DistributionEnvironment(
            [CandidateDevice("tiny", ResourceVector(memory=0.5, cpu=0.001))]
        )
        result = fixed.distribute(graph, hopeless)
        assert not result.feasible
