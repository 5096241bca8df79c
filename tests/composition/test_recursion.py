"""Unit tests for recursive composition (decomposition of missing services)."""

from repro.composition.recursion import (
    DEFAULT_RECURSION_LIMIT,
    DecompositionRegistry,
)
from repro.graph.abstract import AbstractComponentSpec, AbstractServiceGraph, PinConstraint


def player_decomposition(spec):
    """mpeg_player -> mpeg_decoder -> raw_player."""
    sub = AbstractServiceGraph(name="decomposed")
    sub.add_spec(AbstractComponentSpec("decoder", "mpeg_decoder"))
    sub.add_spec(AbstractComponentSpec("raw", "raw_player"))
    sub.connect("decoder", "raw", 1.0)
    return sub


def app_graph():
    graph = AbstractServiceGraph(name="app")
    graph.add_spec(AbstractComponentSpec("server", "media_server"))
    graph.add_spec(
        AbstractComponentSpec(
            "player", "mpeg_player", pin=PinConstraint(role="client")
        )
    )
    graph.add_spec(AbstractComponentSpec("logger", "logger"))
    graph.connect("server", "player", 2.0)
    graph.connect("player", "logger", 0.1)
    return graph


class TestRegistry:
    def test_paper_default_limit_is_two(self):
        assert DEFAULT_RECURSION_LIMIT == 2

    def test_has_rule_and_count(self):
        registry = DecompositionRegistry()
        assert not registry.has_rule("mpeg_player")
        registry.register("mpeg_player", player_decomposition)
        assert registry.has_rule("mpeg_player")
        assert registry.rule_count() == 1

    def test_decompose_without_rule_returns_none(self):
        registry = DecompositionRegistry()
        spec = AbstractComponentSpec("p", "mpeg_player")
        assert registry.decompose(spec) is None


class TestExpand:
    def setup_method(self):
        self.registry = DecompositionRegistry()
        self.registry.register("mpeg_player", player_decomposition)

    def test_expand_replaces_node(self):
        expanded, new_ids = self.registry.expand(app_graph(), "player")
        assert "player" not in expanded
        assert len(new_ids) == 2
        for new_id in new_ids:
            assert new_id in expanded

    def test_expand_bridges_edges(self):
        expanded, new_ids = self.registry.expand(app_graph(), "player")
        decoder = next(i for i in new_ids if "decoder" in i)
        raw = next(i for i in new_ids if "raw" in i)
        edges = {(e.source, e.target) for e in expanded.edges()}
        assert ("server", decoder) in edges
        assert (raw, "logger") in edges
        assert (decoder, raw) in edges

    def test_expand_preserves_untouched_edges(self):
        graph = app_graph()
        graph.add_spec(AbstractComponentSpec("extra", "x"))
        graph.connect("server", "extra", 0.5)
        expanded, _ = self.registry.expand(graph, "player")
        edges = {(e.source, e.target) for e in expanded.edges()}
        assert ("server", "extra") in edges

    def test_missing_node_pin_is_inherited(self):
        expanded, new_ids = self.registry.expand(app_graph(), "player")
        for new_id in new_ids:
            assert expanded.spec(new_id).pin is not None
            assert expanded.spec(new_id).pin.role == "client"

    def test_expand_without_rule_returns_none(self):
        assert self.registry.expand(app_graph(), "server") is None

    def test_expand_does_not_mutate_original(self):
        graph = app_graph()
        self.registry.expand(graph, "player")
        assert "player" in graph

    def test_expanded_ids_are_unique_across_expansions(self):
        graph = app_graph()
        _, first = self.registry.expand(graph, "player")
        _, second = self.registry.expand(graph, "player")
        assert set(first) & set(second) == set()

    def test_result_still_a_dag(self):
        expanded, _ = self.registry.expand(app_graph(), "player")
        expanded.validate()
