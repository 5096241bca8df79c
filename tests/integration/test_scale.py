"""Scale sanity: the polynomial pieces stay fast at 10x paper sizes."""

import random
import time

from repro.composition.corrections import CorrectionPolicy
from repro.composition.ordered_coordination import ordered_coordination
from repro.distribution.cost import CostWeights
from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.distribution.heuristic import HeuristicDistributor
from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.resources.vectors import ResourceVector


def big_graph(nodes: int, seed: int = 0):
    return random_service_graph(
        random.Random(seed),
        RandomGraphConfig(
            node_count=(nodes, nodes),
            out_degree=(3, 8),
            memory_mb=(0.05, 0.5),
            cpu_fraction=(0.0005, 0.005),
            throughput_mbps=(0.001, 0.01),
        ),
    )


class TestScale:
    def test_heuristic_on_thousand_components(self):
        graph = big_graph(1000)
        env = DistributionEnvironment(
            [
                CandidateDevice(f"d{i}", ResourceVector(memory=200.0, cpu=2.0))
                for i in range(10)
            ],
            bandwidth=lambda a, b: 1000.0,
        )
        started = time.perf_counter()
        result = HeuristicDistributor().distribute(graph, env, CostWeights())
        elapsed = time.perf_counter() - started
        assert result.feasible
        assert result.assignment.covers(graph)
        assert elapsed < 10.0  # generous bound; typically well under 1 s

    def test_oc_on_thousand_components(self):
        graph = big_graph(1000, seed=1)
        started = time.perf_counter()
        report = ordered_coordination(graph, CorrectionPolicy())
        elapsed = time.perf_counter() - started
        assert report.checked_edges >= len(graph.edges())
        assert elapsed < 5.0

    def test_topological_sort_linear_growth(self):
        small = big_graph(200, seed=2)
        large = big_graph(1000, seed=2)

        def time_sort(graph):
            started = time.perf_counter()
            for _ in range(5):
                graph.topological_order()
            return time.perf_counter() - started

        # Merely a smoke check against accidental quadratic behaviour:
        # 5x the nodes should cost far less than 50x the time.
        assert time_sort(large) < 50 * max(time_sort(small), 1e-4)
