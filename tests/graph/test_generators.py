"""Unit tests for the random graph generators."""

import random

import pytest

from repro.graph.generators import (
    RandomGraphConfig,
    figure5_config,
    random_service_graph,
)


class TestConfig:
    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            RandomGraphConfig(node_count=(20, 10))

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            RandomGraphConfig(node_count=(0, 5))

    def test_paper_workload_shapes(self):
        assert RandomGraphConfig().node_count == (10, 20)
        assert figure5_config().node_count == (50, 100)
        assert figure5_config().out_degree == (5, 10)


class TestRandomGraph:
    def test_is_dag(self):
        for seed in range(10):
            graph = random_service_graph(random.Random(seed))
            assert graph.is_dag()

    def test_node_count_in_range(self):
        config = RandomGraphConfig(node_count=(5, 8))
        for seed in range(10):
            graph = random_service_graph(random.Random(seed), config)
            assert 5 <= len(graph) <= 8

    def test_deterministic_given_seed(self):
        g1 = random_service_graph(random.Random(42))
        g2 = random_service_graph(random.Random(42))
        assert g1.component_ids() == g2.component_ids()
        assert [(e.source, e.target, e.throughput_mbps) for e in g1.edges()] == [
            (e.source, e.target, e.throughput_mbps) for e in g2.edges()
        ]

    def test_different_seeds_differ(self):
        g1 = random_service_graph(random.Random(1))
        g2 = random_service_graph(random.Random(2))
        same = len(g1) == len(g2) and [
            (e.source, e.target) for e in g1.edges()
        ] == [(e.source, e.target) for e in g2.edges()]
        assert not same

    def test_every_non_root_reachable(self):
        for seed in range(5):
            graph = random_service_graph(random.Random(seed))
            roots = set(graph.sources())
            reachable = set(roots)
            for root in roots:
                reachable |= graph.reachable_from(root)
            assert reachable == set(graph.component_ids())

    def test_resources_within_config_bounds(self):
        config = RandomGraphConfig(memory_mb=(5, 6), cpu_fraction=(0.1, 0.2))
        graph = random_service_graph(random.Random(0), config)
        for component in graph:
            assert 5 <= component.resources["memory"] <= 6
            assert 0.1 <= component.resources["cpu"] <= 0.2

    def test_single_node_graph(self):
        config = RandomGraphConfig(node_count=(1, 1))
        graph = random_service_graph(random.Random(0), config)
        assert len(graph) == 1 and graph.edges() == []

    def test_custom_name_prefixes_ids(self):
        graph = random_service_graph(random.Random(0), name="myapp")
        assert all(cid.startswith("myapp/") for cid in graph.component_ids())
