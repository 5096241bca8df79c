"""Unit tests for the concrete service graph."""

import pytest

from repro.graph.service_graph import (
    CycleError,
    GraphValidationError,
    ServiceComponent,
    ServiceEdge,
    ServiceGraph,
)
from repro.qos.vectors import QoSVector
from tests.conftest import chain_graph, make_component


class TestComponent:
    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            ServiceComponent(component_id="", service_type="x")

    def test_empty_service_type_rejected(self):
        with pytest.raises(ValueError, match="service_type"):
            ServiceComponent(component_id="c", service_type="")

    def test_adjustable_without_capability_rejected(self):
        with pytest.raises(ValueError):
            ServiceComponent(
                component_id="c",
                service_type="x",
                adjustable_outputs=frozenset({"frame_rate"}),
            )

    def test_with_qos_replaces_only_given(self):
        component = make_component("c", qos_output=QoSVector(a=1))
        updated = component.with_qos(qos_output=QoSVector(a=2))
        assert updated.qos_output == QoSVector(a=2)
        assert updated.qos_input == component.qos_input
        assert updated.component_id == "c"

    def test_with_pin_and_renamed(self):
        component = make_component("c")
        assert component.with_pin("dev").pinned_to == "dev"
        assert component.renamed("d").component_id == "d"

    def test_attribute_lookup(self):
        component = make_component("c", attributes=(("media", "audio"),))
        assert component.attribute("media") == "audio"
        assert component.attribute("missing", "dflt") == "dflt"


class TestEdge:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            ServiceEdge("a", "a")

    def test_negative_throughput_rejected(self):
        with pytest.raises(ValueError):
            ServiceEdge("a", "b", -1.0)


class TestGraphConstruction:
    def test_duplicate_component_rejected(self):
        graph = ServiceGraph()
        graph.add_component(make_component("a"))
        with pytest.raises(GraphValidationError):
            graph.add_component(make_component("a"))

    def test_edge_needs_existing_endpoints(self):
        graph = ServiceGraph()
        graph.add_component(make_component("a"))
        with pytest.raises(GraphValidationError):
            graph.connect("a", "ghost")

    def test_duplicate_edge_rejected(self):
        graph = chain_graph("a", "b")
        with pytest.raises(GraphValidationError):
            graph.connect("a", "b")

    def test_remove_component_cleans_edges(self):
        graph = chain_graph("a", "b", "c")
        graph.remove_component("b")
        assert "b" not in graph
        assert graph.edges() == []

    def test_remove_edge(self):
        graph = chain_graph("a", "b")
        graph.remove_edge("a", "b")
        assert not graph.has_edge("a", "b")

    def test_remove_missing_edge_raises(self):
        graph = chain_graph("a", "b")
        with pytest.raises(KeyError):
            graph.remove_edge("b", "a")
        assert graph.has_edge("a", "b")

    def test_update_component_requires_same_id(self):
        graph = chain_graph("a")
        with pytest.raises(KeyError):
            graph.update_component(make_component("other"))

    def test_insert_between_splices_node(self):
        graph = chain_graph("a", "b", throughput=2.0)
        graph.insert_between("a", "b", make_component("mid"))
        assert not graph.has_edge("a", "b")
        assert graph.edge("a", "mid").throughput_mbps == 2.0
        assert graph.edge("mid", "b").throughput_mbps == 2.0

    def test_insert_between_with_custom_throughputs(self):
        graph = chain_graph("a", "b", throughput=2.0)
        graph.insert_between(
            "a", "b", make_component("mid"),
            inbound_throughput_mbps=3.0, outbound_throughput_mbps=1.0,
        )
        assert graph.edge("a", "mid").throughput_mbps == 3.0
        assert graph.edge("mid", "b").throughput_mbps == 1.0

    def test_insert_between_missing_edge_raises(self):
        graph = chain_graph("a", "b")
        with pytest.raises(KeyError):
            graph.insert_between("b", "a", make_component("mid"))


class TestGraphQueries:
    def test_sources_and_sinks(self, diamond_graph):
        assert diamond_graph.sources() == ["src"]
        assert diamond_graph.sinks() == ["sink"]

    def test_degrees(self, diamond_graph):
        assert diamond_graph.out_degree("src") == 2
        assert diamond_graph.in_degree("sink") == 2

    def test_predecessors_successors_sorted(self, diamond_graph):
        assert diamond_graph.predecessors("sink") == ["left", "right"]
        assert diamond_graph.successors("src") == ["left", "right"]

    def test_total_resources(self):
        graph = chain_graph("a", "b")
        total = graph.total_resources()
        assert total["memory"] == 20.0

    def test_total_throughput(self, diamond_graph):
        assert diamond_graph.total_throughput() == 6.0

    def test_reachable_from(self, diamond_graph):
        assert diamond_graph.reachable_from("src") == {"left", "right", "sink"}
        assert diamond_graph.reachable_from("sink") == set()

    def test_is_linear(self, diamond_graph):
        assert chain_graph("a", "b", "c").is_linear()
        assert not diamond_graph.is_linear()

    def test_empty_graph_is_linear(self):
        assert ServiceGraph().is_linear()


class TestTopologicalOrder:
    def test_chain_order(self):
        graph = chain_graph("a", "b", "c")
        assert graph.topological_order() == ["a", "b", "c"]

    def test_diamond_order_valid(self, diamond_graph):
        order = diamond_graph.topological_order()
        position = {cid: i for i, cid in enumerate(order)}
        for edge in diamond_graph.edges():
            assert position[edge.source] < position[edge.target]

    def test_cycle_detected(self):
        graph = chain_graph("a", "b")
        graph.connect("b", "a")
        with pytest.raises(CycleError):
            graph.topological_order()
        assert not graph.is_dag()

    def test_validate_rejects_empty_graph(self):
        with pytest.raises(GraphValidationError):
            ServiceGraph().validate()

    def test_validate_rejects_cycle(self):
        graph = chain_graph("a", "b")
        graph.connect("b", "a")
        with pytest.raises(GraphValidationError):
            graph.validate()


class TestCopy:
    def test_copy_is_independent(self, diamond_graph):
        clone = diamond_graph.copy()
        clone.remove_component("left")
        assert "left" in diamond_graph
        assert "left" not in clone

    def test_copy_preserves_edges(self, diamond_graph):
        clone = diamond_graph.copy(name="clone")
        assert clone.name == "clone"
        assert len(clone.edges()) == len(diamond_graph.edges())
