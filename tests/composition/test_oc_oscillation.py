"""OC must not report consistency when corrections oscillate.

Two successors with disjoint requirements pull one adjustable output in
opposite directions: every pass re-adjusts, the pass budget runs out, and
the final graph necessarily violates one of the edges. The report must
say so.
"""

from repro.composition.corrections import CorrectionPolicy
from repro.composition.ordered_coordination import (
    consistency_sweep,
    ordered_coordination,
)
from repro.graph.service_graph import ServiceComponent, ServiceGraph
from repro.qos.vectors import QoSVector
from tests.conftest import make_component


def tug_of_war_graph() -> ServiceGraph:
    graph = ServiceGraph()
    graph.add_component(
        ServiceComponent(
            component_id="source",
            service_type="src",
            qos_output=QoSVector(frame_rate=50),
            adjustable_outputs=frozenset({"frame_rate"}),
            output_capabilities=QoSVector(frame_rate=(5.0, 60.0)),
        )
    )
    graph.add_component(
        make_component("slow", qos_input=QoSVector(frame_rate=(5.0, 10.0)))
    )
    graph.add_component(
        make_component("fast", qos_input=QoSVector(frame_rate=(40.0, 60.0)))
    )
    graph.connect("source", "slow", 1.0)
    graph.connect("source", "fast", 1.0)
    return graph


class TestOscillation:
    def test_report_matches_final_graph_state(self):
        graph = tug_of_war_graph()
        # Buffers could actually resolve the slow side; disable them so
        # the only mechanism is the oscillating adjustment.
        policy = CorrectionPolicy(allow_buffer=False, allow_transcoder=False)
        report = ordered_coordination(graph, policy, max_passes=4)
        issues, _ = consistency_sweep(graph)
        assert report.consistent == (not issues)
        assert not report.consistent  # the tug of war cannot be won

    def test_buffers_resolve_the_tug_of_war(self):
        # With buffering enabled the adjustable output settles high and a
        # buffer throttles the slow branch: a genuinely consistent result.
        graph = tug_of_war_graph()
        report = ordered_coordination(graph, CorrectionPolicy())
        issues, _ = consistency_sweep(graph)
        assert report.consistent
        assert issues == []

    def test_unresolved_lists_actual_violations(self):
        graph = tug_of_war_graph()
        policy = CorrectionPolicy(allow_buffer=False, allow_transcoder=False)
        report = ordered_coordination(graph, policy, max_passes=4)
        violated_edges = {(i.predecessor, i.node) for i in report.unresolved}
        assert violated_edges  # at least one of the two branch edges
        assert violated_edges <= {("source", "slow"), ("source", "fast")}
