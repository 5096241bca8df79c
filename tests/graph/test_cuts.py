"""Unit tests for assignments / k-cuts (Definition 3.3)."""

import pytest

from repro.graph.cuts import Assignment


class TestAssignmentBasics:
    def test_mapping_protocol(self):
        assignment = Assignment({"a": "dev1", "b": "dev2"})
        assert assignment["a"] == "dev1"
        assert assignment.device_of("b") == "dev2"
        assert len(assignment) == 2

    def test_devices_used_sorted_unique(self):
        assignment = Assignment({"a": "z", "b": "a", "c": "z"})
        assert assignment.devices_used() == ["a", "z"]

    def test_partition_subsets(self):
        assignment = Assignment({"a": "d1", "b": "d1", "c": "d2"})
        assert assignment.partition() == {"d1": ["a", "b"], "d2": ["c"]}

    def test_with_placement_is_persistent(self):
        original = Assignment({"a": "d1"})
        updated = original.with_placement("b", "d2")
        assert "b" not in original
        assert updated["b"] == "d2"

    def test_equality_and_hash(self):
        assert Assignment({"a": "d"}) == Assignment({"a": "d"})
        assert hash(Assignment({"a": "d"})) == hash(Assignment({"a": "d"}))


class TestCutDerivedQuantities:
    def test_cut_edges(self, diamond_graph):
        assignment = Assignment(
            {"src": "d1", "left": "d1", "right": "d2", "sink": "d2"}
        )
        cut = {(e.source, e.target) for e in assignment.cut_edges(diamond_graph)}
        assert cut == {("src", "right"), ("left", "sink")}

    def test_no_cut_when_colocated(self, diamond_graph):
        assignment = Assignment(
            {cid: "d1" for cid in diamond_graph.component_ids()}
        )
        assert assignment.cut_edges(diamond_graph) == []

    def test_device_loads_sum_requirements(self, diamond_graph):
        assignment = Assignment(
            {"src": "d1", "left": "d1", "right": "d2", "sink": "d2"}
        )
        loads = assignment.device_loads(diamond_graph)
        assert loads["d1"]["memory"] == 20.0
        assert loads["d2"]["memory"] == 20.0

    def test_device_load_single_device(self, diamond_graph):
        assignment = Assignment(
            {"src": "d1", "left": "d1", "right": "d2", "sink": "d2"}
        )
        assert assignment.device_load(diamond_graph, "d1")["cpu"] == pytest.approx(0.2)

    def test_pairwise_throughput_follows_edge_direction(self, diamond_graph):
        assignment = Assignment(
            {"src": "d1", "left": "d1", "right": "d2", "sink": "d2"}
        )
        traffic = assignment.pairwise_throughput(diamond_graph)
        # src->right (1.0) and left->sink (2.0) both go d1 -> d2.
        assert traffic == {("d1", "d2"): 3.0}

    def test_pairwise_throughput_ordered_pairs_kept_separate(self, diamond_graph):
        assignment = Assignment(
            {"src": "d1", "left": "d2", "right": "d1", "sink": "d1"}
        )
        traffic = assignment.pairwise_throughput(diamond_graph)
        assert traffic[("d1", "d2")] == 2.0  # src->left
        assert traffic[("d2", "d1")] == 2.0  # left->sink

    def test_covers(self, diamond_graph):
        partial = Assignment({"src": "d1"})
        full = Assignment({cid: "d1" for cid in diamond_graph.component_ids()})
        assert not partial.covers(diamond_graph)
        assert full.covers(diamond_graph)

    def test_respects_pins(self, diamond_graph):
        pinned = diamond_graph.component("sink").with_pin("d2")
        diamond_graph.update_component(pinned)
        good = Assignment(
            {"src": "d1", "left": "d1", "right": "d1", "sink": "d2"}
        )
        bad = Assignment(
            {"src": "d1", "left": "d1", "right": "d1", "sink": "d1"}
        )
        assert good.respects_pins(diamond_graph)
        assert not bad.respects_pins(diamond_graph)
