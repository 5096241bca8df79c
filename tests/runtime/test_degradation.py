"""Unit tests for graceful QoS degradation."""

import sys
import threading

import pytest

from repro.distribution.pareto import ParetoPoint, utility_profile
from repro.qos.vectors import QoSVector
from repro.runtime.degradation import (
    DegradationLadder,
    QoSLevel,
    scale_graph_demand,
)
from tests.conftest import chain_graph


class TestLadder:
    def test_needs_levels(self):
        with pytest.raises(ValueError):
            DegradationLadder(())

    def test_rate_ladder_ordered_best_first(self):
        ladder = DegradationLadder.rate_ladder("frame_rate", [10, 40, 20])
        labels = [level.label for level in ladder.levels]
        assert labels == ["frame_rate=40", "frame_rate=20", "frame_rate=10"]
        scales = [level.demand_scale for level in ladder.levels]
        assert scales == [1.0, 0.5, 0.25]

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            QoSLevel("x", QoSVector(), demand_scale=0.0)
        with pytest.raises(ValueError):
            QoSLevel("x", QoSVector(), demand_scale=1.5)


class TestPreferenceOrder:
    def ladder(self):
        return DegradationLadder.rate_ladder("frame_rate", [40.0, 20.0, 10.0])

    def test_no_profile_is_the_classic_best_first_walk(self):
        assert self.ladder().order_for(None) == [0, 1, 2]

    def test_prior_points_track_ladder_positions(self):
        priors = self.ladder().prior_points()
        assert [p.key[0] for p in priors] == ["level0", "level1", "level2"]
        assert [p.fidelity_loss for p in priors] == pytest.approx(
            [0.0, 0.5, 0.75]
        )

    def test_profile_reorders_over_the_priors(self):
        ladder = self.ladder()
        assert ladder.order_for(utility_profile("fidelity_first"))[0] == 0
        assert ladder.order_for(utility_profile("resource_lean"))[0] == 2

    def test_measured_points_override_the_priors(self):
        # Measured reality inverts the prior estimate: the full level
        # turned out *cheaper* than economy on every non-fidelity axis,
        # so even a resource-lean profile prefers it.
        ladder = self.ladder()
        measured = [
            ParetoPoint(0.1, 0.0, 0.1, 0.1, key=("level0", "full")),
            None,  # unplanned level falls back to its prior
            ParetoPoint(0.9, 0.75, 0.9, 2.0, key=("level2", "economy")),
        ]
        order = ladder.order_for(utility_profile("resource_lean"), measured)
        assert order[0] == 0
        assert sorted(order) == [0, 1, 2]


class TestScaleGraphDemand:
    def test_scales_resources_and_throughput(self):
        graph = chain_graph("a", "b", throughput=4.0)
        scaled = scale_graph_demand(graph, 0.5)
        assert scaled.component("a").resources["memory"] == 5.0
        assert scaled.edge("a", "b").throughput_mbps == 2.0

    def test_identity_at_factor_one(self):
        graph = chain_graph("a", "b")
        assert scale_graph_demand(graph, 1.0) is graph

    def test_original_untouched(self):
        graph = chain_graph("a", "b", throughput=4.0)
        scale_graph_demand(graph, 0.5)
        assert graph.edge("a", "b").throughput_mbps == 4.0


def _exact_graph(graph):
    """Everything a plan reads from a scaled graph, floats as bit patterns."""
    return (
        graph.version,
        graph.topological_order(),
        [
            (c.component_id, [(n, v.hex()) for n, v in c.resources.items()])
            for c in graph
        ],
        [(e.source, e.target, e.throughput_mbps.hex()) for e in graph.edges()],
    )


class TestRungGraphs:
    """A frozen class graph is scaled once per rung and shares the result."""

    #: The demand scales of the conference ladder the benchmark walks.
    SCALES = (1.0, 0.65, 0.4)

    def composed_pair(self):
        """Two requests of one class and client, composed."""
        from repro.scenarios import load_catalog_scenario
        from repro.scenarios.compile import compile_scenario

        compiled = compile_scenario(load_catalog_scenario("conference_mesh"))
        testbed = compiled.build_testbed()
        to_request = compiled.request_factory(testbed)
        requests = [to_request(e) for e in list(compiled.arrival_trace())[:4]]
        first, again = requests[0], requests[3]
        assert first.composition.client_device_id == again.composition.client_device_id
        composer = testbed.configurator.composer
        return [composer.compose(r.composition).graph for r in (first, again)]

    def test_equals_scale_graph_demand_on_every_rung(self):
        graph, _ = self.composed_pair()
        assert graph.frozen
        for _round in range(2):  # the second round is served from the memo
            for scale in self.SCALES:
                assert _exact_graph(scale_graph_demand(graph, scale)) == (
                    _exact_graph(scale_graph_demand(graph.copy(), scale))
                )

    def test_one_class_graph_is_scaled_once_per_rung(self):
        first, again = self.composed_pair()
        assert first is again
        low = scale_graph_demand(first, 0.4)
        assert low.frozen
        assert scale_graph_demand(again, 0.4) is low
        assert scale_graph_demand(again, 0.65) is not low

    def test_identity_at_factor_one(self):
        graph, _ = self.composed_pair()
        assert scale_graph_demand(graph, 1.0) is graph

    def test_mutable_graph_scales_anew(self):
        graph = chain_graph("a", "b", throughput=4.0)
        first, second = (scale_graph_demand(graph, 0.5) for _ in range(2))
        assert first is not second
        assert not first.frozen
        assert _exact_graph(first) == _exact_graph(second)

    def test_rung_graph_lives_as_long_as_its_class_graph(self):
        import gc
        import weakref

        graph = self.composed_pair()[0]  # its composer is dropped
        rung = weakref.ref(scale_graph_demand(graph, 0.4))
        gc.collect()
        assert rung() is not None  # held by the class graph's memo
        del graph
        gc.collect()
        assert rung() is None

    def test_threads_scaling_one_class_graph(self):
        # Admission workers share the composer's frozen graph; racing
        # builds must all end with the one graph the memo kept.
        graph, _ = self.composed_pair()
        expected = {
            scale: _exact_graph(scale_graph_demand(graph.copy(), scale))
            for scale in self.SCALES
        }
        seen = {scale: set() for scale in self.SCALES}
        errors = []

        def work():
            try:
                for _round in range(200):
                    for scale in self.SCALES:
                        got = scale_graph_demand(graph, scale)
                        assert _exact_graph(got) == expected[scale]
                        seen[scale].add(id(got))
            except Exception as exc:  # surfaced below, with its type
                errors.append(exc)

        workers = [threading.Thread(target=work) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert all(len(ids) == 1 for ids in seen.values())
