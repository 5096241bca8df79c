"""Property-based tests for the media pipeline's rate behaviour."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.media import MediaPipeline
from repro.graph.service_graph import ServiceComponent, ServiceGraph
from repro.qos.vectors import QoSVector
from repro.sim.kernel import Simulator

rates = st.floats(min_value=1.0, max_value=60.0, allow_nan=False)


def build_chain(source_rate, stage_rates):
    graph = ServiceGraph()
    graph.add_component(
        ServiceComponent(
            component_id="src",
            service_type="src",
            qos_output=QoSVector(frame_rate=source_rate),
            attributes=(("media", "stream"),),
        )
    )
    previous = "src"
    for index, rate in enumerate(stage_rates):
        cid = f"stage{index}"
        graph.add_component(
            ServiceComponent(
                component_id=cid,
                service_type="stage",
                qos_output=(
                    QoSVector(frame_rate=rate) if rate is not None else QoSVector()
                ),
            )
        )
        graph.connect(previous, cid, 1.0)
        previous = cid
    graph.add_component(ServiceComponent(component_id="sink", service_type="sink"))
    graph.connect(previous, "sink", 1.0)
    return graph


def delivered_fps(graph, duration=30.0, window=10.0):
    sim = Simulator()
    pipeline = MediaPipeline(sim, graph)
    pipeline.run_for(duration)
    return pipeline.measured_qos(window)["sink"]


class TestRateConservation:
    @given(rates)
    @settings(max_examples=15, deadline=None)
    def test_sink_never_exceeds_source(self, source_rate):
        graph = build_chain(source_rate, [None])
        fps = delivered_fps(graph)
        assert fps <= source_rate * 1.05 + 0.2

    @given(rates, rates)
    @settings(max_examples=15, deadline=None)
    def test_throttle_bounds_output(self, source_rate, stage_rate):
        graph = build_chain(source_rate, [stage_rate])
        fps = delivered_fps(graph)
        expected = min(source_rate, stage_rate)
        assert fps == pytest.approx(expected, rel=0.1, abs=0.3)

    @given(rates, rates, rates)
    @settings(max_examples=10, deadline=None)
    def test_chain_bottleneck_rules(self, source_rate, first, second):
        graph = build_chain(source_rate, [first, second])
        fps = delivered_fps(graph)
        expected = min(source_rate, first, second)
        assert fps == pytest.approx(expected, rel=0.12, abs=0.4)

    @given(rates)
    @settings(max_examples=10, deadline=None)
    def test_throttle_above_source_is_transparent(self, source_rate):
        graph = build_chain(source_rate, [source_rate * 2.0])
        fps = delivered_fps(graph)
        assert fps == pytest.approx(source_rate, rel=0.1, abs=0.3)
