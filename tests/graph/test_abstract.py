"""Unit tests for abstract service graphs and pin constraints."""

import pytest

from repro.graph.abstract import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    CLIENT_PIN,
    PinConstraint,
)
from repro.graph.service_graph import GraphValidationError


class TestPinConstraint:
    def test_needs_exactly_one_of_device_or_role(self):
        with pytest.raises(ValueError):
            PinConstraint()
        with pytest.raises(ValueError):
            PinConstraint(device_id="d", role="client")

    def test_device_pin_resolves_to_itself(self):
        assert PinConstraint(device_id="pc1").resolve({}) == "pc1"

    def test_role_pin_resolves_through_mapping(self):
        assert CLIENT_PIN.resolve({"client": "pda1"}) == "pda1"

    def test_unbound_role_raises(self):
        with pytest.raises(KeyError):
            CLIENT_PIN.resolve({})


class TestSpec:
    def test_requires_ids(self):
        with pytest.raises(ValueError):
            AbstractComponentSpec(spec_id="", service_type="x")
        with pytest.raises(ValueError):
            AbstractComponentSpec(spec_id="s", service_type="")

    def test_attribute_lookup(self):
        spec = AbstractComponentSpec(
            "s", "x", attributes=(("codec", "mp3"),)
        )
        assert spec.attribute("codec") == "mp3"
        assert spec.attribute("nope") is None

    def test_list_attributes_become_hashable_pairs(self):
        spec = AbstractComponentSpec("s", "x", attributes=[["codec", "mp3"]])
        assert spec.attributes == (("codec", "mp3"),)
        assert spec == AbstractComponentSpec("s", "x", attributes=(("codec", "mp3"),))
        graph = AbstractServiceGraph(specs=[spec])
        hash(graph.structure_key)


class TestAbstractGraph:
    def build(self) -> AbstractServiceGraph:
        graph = AbstractServiceGraph(name="g")
        graph.add_spec(AbstractComponentSpec("a", "t"))
        graph.add_spec(AbstractComponentSpec("b", "t", optional=True))
        graph.add_spec(AbstractComponentSpec("c", "t"))
        graph.connect("a", "b", 1.0)
        graph.connect("b", "c", 1.0)
        return graph

    def test_duplicate_spec_rejected(self):
        graph = self.build()
        with pytest.raises(GraphValidationError):
            graph.add_spec(AbstractComponentSpec("a", "t"))

    def test_edge_requires_known_specs(self):
        graph = self.build()
        with pytest.raises(GraphValidationError):
            graph.connect("a", "ghost")

    def test_duplicate_edge_rejected(self):
        graph = self.build()
        with pytest.raises(GraphValidationError):
            graph.connect("a", "b")

    def test_mandatory_and_optional_partition(self):
        graph = self.build()
        assert [s.spec_id for s in graph.mandatory_specs()] == ["a", "c"]
        assert [s.spec_id for s in graph.optional_specs()] == ["b"]

    def test_validate_accepts_dag(self):
        self.build().validate()

    def test_validate_rejects_cycle(self):
        graph = self.build()
        graph.connect("c", "a")
        with pytest.raises(GraphValidationError):
            graph.validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(GraphValidationError):
            AbstractServiceGraph().validate()

    def test_len_and_contains(self):
        graph = self.build()
        assert len(graph) == 3
        assert "a" in graph and "ghost" not in graph
