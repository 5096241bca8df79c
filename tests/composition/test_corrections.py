"""Unit tests for the automatic-correction policy."""

from repro.composition.corrections import CorrectionPolicy
from repro.composition.ordered_coordination import check_edge
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.qos.parameters import Preference, SingleValue
from repro.qos.translation import Transcoding, TranscoderCatalog
from repro.qos.vectors import QoSVector
from tests.conftest import make_component


def graph_with_edge(upstream: ServiceComponent, downstream: ServiceComponent):
    graph = ServiceGraph()
    graph.add_component(upstream)
    graph.add_component(downstream)
    graph.add_edge(
        ServiceEdge(upstream.component_id, downstream.component_id, 1.0)
    )
    return graph


def correct_all(policy, graph, pred, node):
    issues = check_edge(graph, pred, node)
    return policy.correct(graph, pred, node, issues)


class TestAdjustOutput:
    def make_adjustable(self, rate=60):
        return ServiceComponent(
            component_id="up",
            service_type="src",
            qos_output=QoSVector(frame_rate=rate),
            adjustable_outputs=frozenset({"frame_rate"}),
            output_capabilities=QoSVector(frame_rate=(5.0, 60.0)),
        )

    def test_adjusts_into_requirement(self):
        graph = graph_with_edge(
            self.make_adjustable(),
            make_component("down", qos_input=QoSVector(frame_rate=(10.0, 30.0))),
        )
        actions, unresolved = correct_all(CorrectionPolicy(), graph, "up", "down")
        assert unresolved == []
        assert actions[0].kind == "adjust_output"
        assert graph.component("up").qos_output["frame_rate"] == SingleValue(30.0)

    def test_respects_lower_is_better_preference(self):
        policy = CorrectionPolicy(preferences={"frame_rate": Preference.LOWER})
        graph = graph_with_edge(
            self.make_adjustable(),
            make_component("down", qos_input=QoSVector(frame_rate=(10.0, 30.0))),
        )
        correct_all(policy, graph, "up", "down")
        assert graph.component("up").qos_output["frame_rate"] == SingleValue(10.0)

    def test_capability_outside_requirement_fails(self):
        graph = graph_with_edge(
            self.make_adjustable(),
            make_component("down", qos_input=QoSVector(frame_rate=(100.0, 200.0))),
        )
        actions, unresolved = correct_all(CorrectionPolicy(allow_buffer=False),
                                          graph, "up", "down")
        assert actions == []
        assert len(unresolved) == 1

    def test_disabled_adjustment_skips_mechanism(self):
        policy = CorrectionPolicy(allow_adjust=False, allow_buffer=False)
        graph = graph_with_edge(
            self.make_adjustable(),
            make_component("down", qos_input=QoSVector(frame_rate=(10.0, 30.0))),
        )
        actions, unresolved = correct_all(policy, graph, "up", "down")
        assert actions == []
        assert unresolved


class TestTranscoderInsertion:
    def catalog(self):
        return TranscoderCatalog(
            [
                Transcoding("MPEG", "WAV", {"cpu": 0.1}, name="MPEG2wav"),
                Transcoding("WAV", "PCM"),
            ]
        )

    def test_single_hop_insertion(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(format="MPEG")),
            make_component("down", qos_input=QoSVector(format="WAV")),
        )
        policy = CorrectionPolicy(catalog=self.catalog())
        actions, unresolved = correct_all(policy, graph, "up", "down")
        assert unresolved == []
        assert actions[0].kind == "insert_transcoder"
        transcoder_id = actions[0].inserted_component
        assert graph.has_edge("up", transcoder_id)
        assert graph.has_edge(transcoder_id, "down")
        assert graph.component(transcoder_id).resources["cpu"] == 0.1

    def test_chain_insertion(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(format="MPEG")),
            make_component("down", qos_input=QoSVector(format="PCM")),
        )
        policy = CorrectionPolicy(catalog=self.catalog())
        actions, unresolved = correct_all(policy, graph, "up", "down")
        assert unresolved == []
        assert len(graph) == 4  # two transcoders spliced in

    def test_set_requirement_picks_reachable_format(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(format="MPEG")),
            make_component("down", qos_input=QoSVector(format={"OGG", "WAV"})),
        )
        policy = CorrectionPolicy(catalog=self.catalog())
        actions, unresolved = correct_all(policy, graph, "up", "down")
        assert unresolved == []
        assert "WAV" in actions[0].detail

    def test_unknown_translation_unresolved(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(format="MPEG")),
            make_component("down", qos_input=QoSVector(format="FLAC")),
        )
        policy = CorrectionPolicy(catalog=self.catalog())
        actions, unresolved = correct_all(policy, graph, "up", "down")
        assert actions == []
        assert unresolved

    def test_transcoder_passes_non_format_parameters_through(self):
        graph = graph_with_edge(
            make_component(
                "up", qos_output=QoSVector(format="MPEG", frame_rate=40)
            ),
            make_component(
                "down",
                qos_input=QoSVector(format="WAV", frame_rate=(10.0, 50.0)),
            ),
        )
        policy = CorrectionPolicy(catalog=self.catalog())
        actions, unresolved = correct_all(policy, graph, "up", "down")
        transcoder = graph.component(actions[0].inserted_component)
        assert transcoder.qos_output["frame_rate"] == SingleValue(40)
        assert unresolved == []


class TestBufferInsertion:
    def test_throttles_overdelivery(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(frame_rate=60)),
            make_component("down", qos_input=QoSVector(frame_rate=(10.0, 30.0))),
        )
        actions, unresolved = correct_all(CorrectionPolicy(), graph, "up", "down")
        assert unresolved == []
        assert actions[0].kind == "insert_buffer"
        buffer_id = actions[0].inserted_component
        assert graph.component(buffer_id).qos_output["frame_rate"] == SingleValue(30.0)

    def test_cannot_speed_up_a_slow_stream(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(frame_rate=5)),
            make_component("down", qos_input=QoSVector(frame_rate=(10.0, 30.0))),
        )
        actions, unresolved = correct_all(CorrectionPolicy(), graph, "up", "down")
        assert actions == []
        assert unresolved

    def test_non_rate_parameter_not_buffered(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(color_depth=8)),
            make_component("down", qos_input=QoSVector(color_depth=24)),
        )
        actions, unresolved = correct_all(CorrectionPolicy(), graph, "up", "down")
        assert actions == []
        assert unresolved

    def test_buffer_matches_exact_single_requirement(self):
        graph = graph_with_edge(
            make_component("up", qos_output=QoSVector(frame_rate=60)),
            make_component("down", qos_input=QoSVector(frame_rate=25)),
        )
        actions, unresolved = correct_all(CorrectionPolicy(), graph, "up", "down")
        assert unresolved == []
        buffer_id = actions[0].inserted_component
        assert graph.component(buffer_id).qos_output["frame_rate"] == SingleValue(25.0)


class TestMultipleIssuesOnOneEdge:
    def test_insertion_stops_further_fixes_until_next_pass(self):
        # Both format and rate mismatch; the transcoder insertion rewires
        # the edge, so the rate issue is deferred to the next OC pass.
        graph = graph_with_edge(
            make_component(
                "up", qos_output=QoSVector(format="MPEG", frame_rate=60)
            ),
            make_component(
                "down",
                qos_input=QoSVector(format="WAV", frame_rate=(10.0, 30.0)),
            ),
        )
        policy = CorrectionPolicy(
            catalog=TranscoderCatalog([Transcoding("MPEG", "WAV")])
        )
        actions, unresolved = correct_all(policy, graph, "up", "down")
        assert len(actions) == 1
        assert unresolved == []  # deferred, not failed
