"""Property-based tests for the Ordered Coordination algorithm."""

import random

from hypothesis import given, settings, strategies as st

from repro.composition.corrections import CorrectionPolicy
from repro.composition.ordered_coordination import (
    consistency_sweep,
    ordered_coordination,
)
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.qos.translation import Transcoding, TranscoderCatalog
from repro.qos.vectors import QoSVector

FORMATS = ["MPEG", "WAV", "PCM", "MP3"]


def full_catalog() -> TranscoderCatalog:
    """A catalog connecting every format pair (directly)."""
    return TranscoderCatalog(
        [
            Transcoding(src, dst)
            for src in FORMATS
            for dst in FORMATS
            if src != dst
        ]
    )


@st.composite
def random_media_chain(draw):
    """A chain of components with random formats and rates."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    length = draw(st.integers(min_value=2, max_value=6))
    graph = ServiceGraph(name="chain")
    previous = None
    for i in range(length):
        out_format = rng.choice(FORMATS)
        out_rate = rng.choice([10, 20, 30, 40, 60])
        in_format = rng.choice(FORMATS)
        in_low = rng.choice([5, 10, 20])
        in_high = in_low + rng.choice([10, 20, 40])
        component = ServiceComponent(
            component_id=f"c{i}",
            service_type="stage",
            qos_input=(
                QoSVector(format=in_format, frame_rate=(float(in_low), float(in_high)))
                if i > 0
                else QoSVector()
            ),
            qos_output=QoSVector(format=out_format, frame_rate=out_rate),
        )
        graph.add_component(component)
        if previous is not None:
            graph.add_edge(ServiceEdge(previous, component.component_id, 1.0))
        previous = component.component_id
    return graph


class TestOCInvariants:
    @given(random_media_chain())
    @settings(max_examples=40, deadline=None)
    def test_consistent_report_implies_clean_sweep(self, graph):
        policy = CorrectionPolicy(catalog=full_catalog())
        report = ordered_coordination(graph, policy)
        issues, _checked = consistency_sweep(graph)
        if report.consistent:
            assert issues == []
        else:
            assert issues

    @given(random_media_chain())
    @settings(max_examples=40, deadline=None)
    def test_graph_stays_a_dag(self, graph):
        policy = CorrectionPolicy(catalog=full_catalog())
        ordered_coordination(graph, policy)
        assert graph.is_dag()

    @given(random_media_chain())
    @settings(max_examples=40, deadline=None)
    def test_corrections_only_grow_the_graph(self, graph):
        original_ids = set(graph.component_ids())
        policy = CorrectionPolicy(catalog=full_catalog())
        ordered_coordination(graph, policy)
        # Original components are never removed; only adapters are added.
        assert original_ids <= set(graph.component_ids())

    @given(random_media_chain())
    @settings(max_examples=40, deadline=None)
    def test_rerun_is_idempotent_once_consistent(self, graph):
        policy = CorrectionPolicy(catalog=full_catalog())
        first = ordered_coordination(graph, policy)
        if not first.consistent:
            return
        size_after_first = len(graph)
        second = ordered_coordination(graph, policy)
        assert second.consistent
        assert second.corrections == []
        assert len(graph) == size_after_first

    @given(random_media_chain())
    @settings(max_examples=40, deadline=None)
    def test_sink_output_never_touched(self, graph):
        # The first examined node (the client) keeps its output QoS — the
        # OC property that preserves the user's QoS requirements.
        sink_id = graph.sinks()[0]
        before = graph.component(sink_id).qos_output
        policy = CorrectionPolicy(catalog=full_catalog())
        ordered_coordination(graph, policy)
        assert graph.component(sink_id).qos_output == before
