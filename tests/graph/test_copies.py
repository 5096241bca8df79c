"""Structural copies and frozen graphs.

A copy shares the immutable payloads and the template's memoized
structure (structure key, adjacency lists, topological order) but owns its
mutable containers, so growing or shrinking one copy never changes the
template or a sibling copy. A frozen graph is shared instead of copied:
it refuses every mutation, and its copies are mutable again.
"""

import dataclasses

import pytest

from repro.apps.audio_on_demand import audio_abstract_graph
from repro.apps.video_conferencing import conferencing_abstract_graph
from repro.graph.abstract import AbstractComponentSpec, AbstractServiceGraph
from repro.graph.service_graph import (
    FrozenGraphError,
    GraphValidationError,
    ServiceEdge,
    ServiceGraph,
)
from repro.resources.vectors import ResourceVector
from repro.runtime.degradation import scale_graph_demand
from repro.scenarios import ScenarioSpec, compile_scenario

from tests.conftest import make_component
from tests.scenarios.conftest import minimal_spec_dict


def _structure(graph):
    return (
        graph.components(),
        graph.edges(),
        graph.topological_order(),
        {cid: list(graph.successors(cid)) for cid in graph.component_ids()},
        {cid: list(graph.predecessors(cid)) for cid in graph.component_ids()},
        # Read the adjacency sets themselves, not only their memos.
        graph.sources(),
        graph.sinks(),
    )


MUTATIONS = [
    lambda g: g.add_component(make_component("extra")),
    lambda g: g.remove_component("left"),
    lambda g: g.connect("left", "right", 1.0),
    lambda g: g.remove_edge("src", "left"),
    lambda g: g.insert_between("src", "left", make_component("mid")),
]
MUTATION_IDS = [
    "add_component", "remove_component", "add_edge", "remove_edge",
    "insert_between",
]


@pytest.fixture
def template(diamond_graph):
    diamond_graph.freeze()  # as the composer leaves a class graph
    return diamond_graph


class TestServiceGraphCopyIsolation:
    def test_copy_inherits_the_memos(self, template):
        clone = template.copy()
        assert clone.topological_order() == template.topological_order()
        assert clone.successors("src") is template.successors("src")
        assert clone.predecessors("sink") is template.predecessors("sink")
        assert clone.version == len(template) + len(template.edges())

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=MUTATION_IDS)
    def test_mutating_a_copy_leaves_template_and_sibling(self, template, mutate):
        before = _structure(template)
        mutated, sibling = template.copy(), template.copy()
        mutate(mutated)
        assert _structure(template) == before
        assert _structure(sibling) == before
        # The mutated copy recomputes its memos from its own structure.
        rebuilt = ServiceGraph(mutated.components(), mutated.edges())
        assert _structure(mutated) == _structure(rebuilt)
        assert _structure(mutated) != before

    def test_payload_swap_keeps_shared_structure(self, template):
        clone = template.copy()
        clone.update_component(make_component("left", memory=99.0))
        assert template.component("left").resources["memory"] == 10.0
        assert clone.successors("src") is template.successors("src")


class TestFrozenGraphs:
    @pytest.mark.parametrize(
        "mutate",
        MUTATIONS + [lambda g: g.update_component(make_component("left"))],
        ids=MUTATION_IDS + ["update_component"],
    )
    def test_every_mutator_raises_and_changes_nothing(self, template, mutate):
        template.freeze()
        before = (_structure(template), template.version)
        with pytest.raises(FrozenGraphError):
            mutate(template)
        assert (_structure(template), template.version) == before

    @pytest.mark.parametrize("mutate", MUTATIONS, ids=MUTATION_IDS)
    def test_copies_of_a_frozen_graph_are_mutable(self, template, mutate):
        template.freeze()
        before = _structure(template)
        for clone in (template.copy(), template.map_payloads()):
            assert not clone.frozen
            mutate(clone)
        assert _structure(template) == before

    def test_freeze_warms_the_memos_once(self, diamond_graph):
        assert not diamond_graph.frozen
        diamond_graph.freeze()
        successors = diamond_graph.successors("src")
        diamond_graph.freeze()
        assert diamond_graph.frozen
        assert diamond_graph.successors("src") is successors
        assert diamond_graph.copy().successors("src") is successors

    def test_derived_graphs_are_memoized_only_when_frozen(self, diamond_graph):
        builds = []

        def build(graph):
            builds.append(graph)
            return graph.copy()

        first = diamond_graph.derived("k", build)
        assert diamond_graph.derived("k", build) is not first
        assert len(builds) == 2 and not first.frozen
        diamond_graph.freeze()
        shared = diamond_graph.derived("k", build)
        assert shared.frozen
        assert diamond_graph.derived("k", build) is shared
        assert diamond_graph.derived("other", build) is not shared
        assert len(builds) == 4


class TestAbstractCopies:
    def test_copies_share_one_key_object(self):
        template = conferencing_abstract_graph()
        a, b = template.copy(), template.copy()
        assert a.structure_key is b.structure_key is template.structure_key
        assert a.specs() == template.specs() and a.edges() == template.edges()

    def test_growing_a_copy_rebuilds_only_its_key(self):
        template = conferencing_abstract_graph()
        before = (template.specs(), template.edges(), template.structure_key)
        grown, sibling = template.copy(), template.copy()
        grown.add_spec(AbstractComponentSpec("echo", "echo_canceller"))
        grown.connect("lipsync", "echo", 0.3)
        assert grown.structure_key != before[2]
        assert (template.specs(), template.edges(), template.structure_key) == before
        assert sibling.structure_key is before[2]
        assert "echo" not in template and "echo" not in sibling
        fresh = AbstractServiceGraph(grown.specs(), grown.edges(), name=grown.name)
        assert grown.structure_key == fresh.structure_key


class TestScaling:
    @staticmethod
    def _reference(graph, factor):
        """The construction scale_graph_demand used before structural copies."""
        scaled = ServiceGraph(name=graph.name)
        for component in graph:
            scaled.add_component(
                dataclasses.replace(component, resources=component.resources * factor)
            )
        for edge in graph.edges():
            scaled.add_edge(
                ServiceEdge(edge.source, edge.target, edge.throughput_mbps * factor)
            )
        return scaled

    @pytest.mark.parametrize("factor", [0.5, 0.3, 1.0 / 3.0])
    def test_equals_the_rebuilt_reference(self, template, factor):
        scaled = scale_graph_demand(template, factor)
        reference = self._reference(template, factor)
        assert scaled.name == reference.name
        assert scaled.component_ids() == reference.component_ids()
        for ours, theirs in zip(scaled.components(), reference.components()):
            assert ours == theirs
            assert dataclasses.asdict(ours) == dataclasses.asdict(theirs)
            assert dict(ours.resources.items()) == dict(theirs.resources.items())
        assert [(e.key, e.throughput_mbps) for e in scaled.edges()] == [
            (e.key, e.throughput_mbps) for e in reference.edges()
        ]
        assert _structure(scaled) == _structure(reference)
        assert scaled.version == reference.version

    def test_input_is_untouched(self, template):
        before = [c.resources for c in template]
        scale_graph_demand(template, 0.5)
        assert [c.resources for c in template] == before

    def test_factor_one_is_identity(self, template):
        assert scale_graph_demand(template, 1.0) is template

    def test_bad_factor_still_rejected(self, template):
        with pytest.raises(ValueError):
            scale_graph_demand(template, -1.0)

    def test_payload_map_must_keep_ids(self, template):
        with pytest.raises(GraphValidationError):
            template.map_payloads(component=lambda c: c.renamed(c.component_id + "!"))
        with pytest.raises(GraphValidationError):
            template.map_payloads(edge=lambda e: ServiceEdge(e.target, e.source))

    def test_with_resources_replaces_only_r(self):
        component = make_component("a", pinned_to="hub")
        swapped = component.with_resources(ResourceVector(memory=1.0))
        assert swapped.resources == ResourceVector(memory=1.0)
        assert swapped == dataclasses.replace(
            component, resources=ResourceVector(memory=1.0)
        )
        assert component.resources["memory"] == 10.0


class TestBuilders:
    @pytest.mark.parametrize(
        "build", [audio_abstract_graph, conferencing_abstract_graph]
    )
    def test_app_builders_return_fresh_copies(self, build):
        first, second = build(), build()
        assert first is not second
        assert first.structure_key is second.structure_key
        first.add_spec(AbstractComponentSpec("grown", "t"))
        assert "grown" not in build()

    def test_compiled_scenario_returns_fresh_copies(self):
        compiled = compile_scenario(ScenarioSpec.from_dict(minimal_spec_dict()))
        first, second = compiled.abstract_graph("watch"), compiled.abstract_graph("watch")
        assert first is not second
        assert first.structure_key is second.structure_key
        first.add_spec(AbstractComponentSpec("grown", "t"))
        assert "grown" not in compiled.abstract_graph("watch")
