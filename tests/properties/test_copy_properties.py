"""Property: structural copies are transparent.

:meth:`ServiceGraph.copy` and :func:`scale_graph_demand` hand the new
graph the source's memoized adjacency and topological order instead of
rebuilding them. That sharing is sound only under a read-only contract:

- the lists :meth:`~ServiceGraph.successors` and
  :meth:`~ServiceGraph.predecessors` return are shared between calls *and
  between copies*, so no caller may mutate them;
- :meth:`~ServiceGraph.topological_order` hands out a fresh list, never
  the memo itself;
- a structural mutation drops the mutated graph's memos (replaces them)
  rather than editing them in place.

Random DAGs from :mod:`repro.graph.generators` go through random
interleavings of copy, scale and mutation. After every step each live
graph must equal a model rebuilt from scratch: components, edges, their
order, topological order, adjacency and version.
"""

import dataclasses
import random

from hypothesis import given, settings, strategies as st

from repro.graph.generators import RandomGraphConfig, random_service_graph
from repro.graph.service_graph import ServiceComponent, ServiceEdge, ServiceGraph
from repro.resources.vectors import ResourceVector
from repro.runtime.degradation import scale_graph_demand

small_config = RandomGraphConfig(node_count=(2, 10), out_degree=(0, 3))
factors = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
OPS = ("copy", "scale", "add_component", "remove_component", "add_edge",
       "remove_edge", "update_component")


class Model:
    """A graph's expected contents, kept as plain lists."""

    def __init__(self, components, edges, version):
        self.components = list(components)
        self.edges = list(edges)
        self.version = version

    @classmethod
    def rebuilt(cls, components, edges):
        # Building node by node bumps the version once per node and edge.
        return cls(components, edges, len(components) + len(edges))

    def reference(self) -> ServiceGraph:
        return ServiceGraph(self.components, self.edges)


def assert_matches(graph: ServiceGraph, model: Model) -> None:
    reference = model.reference()
    assert graph.components() == model.components
    assert graph.edges() == model.edges
    assert [e.throughput_mbps for e in graph.edges()] == [
        e.throughput_mbps for e in model.edges
    ]
    assert graph.topological_order() == reference.topological_order()
    for cid in reference.component_ids():
        assert graph.successors(cid) == reference.successors(cid)
        assert graph.predecessors(cid) == reference.predecessors(cid)
    assert graph.sources() == reference.sources()
    assert graph.sinks() == reference.sinks()
    assert graph.version == model.version


def step(data, pool, fresh_ids):
    index = data.draw(st.integers(0, len(pool) - 1), label="graph")
    graph, model = pool[index]
    op = data.draw(st.sampled_from(OPS), label="op")
    ids = [c.component_id for c in model.components]
    if op == "copy":
        pool.append((graph.copy(), Model.rebuilt(model.components, model.edges)))
    elif op == "scale":
        factor = data.draw(factors, label="factor")
        scaled = scale_graph_demand(graph, factor)
        if scaled is graph:
            assert factor == 1.0
            return
        pool.append(
            (
                scaled,
                Model.rebuilt(
                    [
                        dataclasses.replace(c, resources=c.resources * factor)
                        for c in model.components
                    ],
                    [
                        ServiceEdge(e.source, e.target, e.throughput_mbps * factor)
                        for e in model.edges
                    ],
                ),
            )
        )
    elif op == "add_component":
        component = ServiceComponent(
            component_id=f"new{next(fresh_ids)}",
            service_type="test",
            resources=ResourceVector(memory=1.0, cpu=0.01),
        )
        graph.add_component(component)
        model.components.append(component)
        model.version += 1
    elif op == "remove_component" and ids:
        victim = data.draw(st.sampled_from(ids), label="victim")
        graph.remove_component(victim)
        model.components = [c for c in model.components if c.component_id != victim]
        model.edges = [e for e in model.edges if victim not in e.key]
        model.version += 1
    elif op == "add_edge" and len(ids) >= 2:
        # Only forward in the current topological order: stays a DAG.
        order = model.reference().topological_order()
        i = data.draw(st.integers(0, len(order) - 2), label="source")
        j = data.draw(st.integers(i + 1, len(order) - 1), label="target")
        if graph.has_edge(order[i], order[j]):
            return
        edge = ServiceEdge(order[i], order[j], 0.5)
        graph.add_edge(edge)
        model.edges.append(edge)
        model.version += 1
    elif op == "remove_edge" and model.edges:
        edge = data.draw(st.sampled_from(model.edges), label="edge")
        graph.remove_edge(edge.source, edge.target)
        model.edges.remove(edge)
        model.version += 1
    elif op == "update_component" and ids:
        target = data.draw(st.sampled_from(ids), label="updated")
        position = ids.index(target)
        component = model.components[position].with_resources(
            ResourceVector(memory=2.0, cpu=0.02)
        )
        graph.update_component(component)
        model.components[position] = component
        model.version += 1


class TestCopiesAreTransparent:
    @given(st.integers(0, 10_000), st.data())
    @settings(max_examples=60, deadline=None)
    def test_interleaved_copy_scale_mutate(self, seed, data):
        graph = random_service_graph(random.Random(seed), small_config)
        pool = [(graph, Model.rebuilt(graph.components(), graph.edges()))]
        fresh_ids = iter(range(1_000_000))
        for _ in range(data.draw(st.integers(1, 12), label="steps")):
            step(data, pool, fresh_ids)
            # Checking reads every graph's memos, so later copies share
            # populated ones.
            for live, model in pool:
                assert_matches(live, model)
