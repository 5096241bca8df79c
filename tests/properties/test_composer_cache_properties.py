"""Property: the composition cache is transparent.

Any request sequence — fresh abstract graphs drawn from a few shapes,
random clients and user QoS, registry changes interleaved — composes
the same through a caching composer as through one with the cache off.

Two counters make a hit differ from a cold run in names only, because a
hit reuses the cold run's names where an uncached run draws new ones:

- ``CorrectionPolicy`` numbers the transcoders it inserts, so inserted
  components are compared by position and service type, not by id;
- ``DecompositionRegistry`` numbers its expansion prefixes. The shapes
  have no decomposition rules; results that went through recursive
  composition would agree on ``expanded``'s keys only.
"""

from hypothesis import given, settings, strategies as st

from repro.composition.composer import CompositionRequest, ServiceComposer
from repro.composition.corrections import CorrectionPolicy
from repro.discovery.registry import ServiceDescription, ServiceRegistry
from repro.discovery.service import DiscoveryService
from repro.graph.abstract import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    PinConstraint,
)
from repro.graph.service_graph import ServiceComponent
from repro.qos.translation import Transcoding, TranscoderCatalog
from repro.qos.vectors import QoSVector
from repro.resources.vectors import ResourceVector

CLIENTS = (("pc1", "PC"), ("pda1", "PDA"), ("pc2", "PC"))
USER_QOS = (
    QoSVector(),
    QoSVector(frame_rate=(20.0, 48.0)),
    QoSVector(frame_rate=(10.0, 20.0)),
)


def template(service_type: str, **kwargs) -> ServiceComponent:
    return ServiceComponent(
        component_id=f"template/{service_type}",
        service_type=service_type,
        resources=ResourceVector(memory=8, cpu=0.1),
        **kwargs,
    )


def base_registry() -> ServiceRegistry:
    registry = ServiceRegistry()
    registry.register(
        ServiceDescription(
            service_type="media_server",
            provider_id="server#1",
            component_template=template(
                "media_server", qos_output=QoSVector(format="MPEG", frame_rate=30)
            ),
            hosted_on="serverbox",
        )
    )
    registry.register(
        ServiceDescription(
            service_type="player",
            provider_id="player#wav",
            component_template=template(
                "player", qos_input=QoSVector(format="WAV", frame_rate=(10.0, 40.0))
            ),
        )
    )
    registry.register(
        ServiceDescription(
            service_type="player",
            provider_id="player#mpeg",
            component_template=template(
                "player", qos_input=QoSVector(format="MPEG", frame_rate=(10.0, 40.0))
            ),
            attributes=(("codec", "mpeg"),),
            platforms=frozenset({"PC"}),
        )
    )
    return registry


#: Registry changes a sequence may interleave: a new provider for a type
#: the shapes already find, for one they otherwise miss, and for one no
#: shape uses.
BUMPS = (
    ("player", QoSVector(format="MPEG", frame_rate=(25.0, 30.0))),
    ("equalizer", QoSVector(format="WAV", frame_rate=(10.0, 40.0))),
    ("unrelated", QoSVector()),
)


def bump(registry: ServiceRegistry, choice: int) -> None:
    service_type, qos_input = BUMPS[choice]
    registry.register(
        ServiceDescription(
            service_type=service_type,
            provider_id=registry.next_provider_id(service_type),
            component_template=template(service_type, qos_input=qos_input),
        )
    )


def shape(index: int) -> AbstractServiceGraph:
    """A fresh graph of one of four shapes, all with one name.

    Shapes 0/1 and 2/3 also share a size, so only their structure tells
    them apart.
    """
    graph = AbstractServiceGraph(name="app")
    graph.add_spec(AbstractComponentSpec("server", "media_server"))
    player_attributes = (("codec", "mpeg"),) if index == 1 else ()
    graph.add_spec(
        AbstractComponentSpec(
            "player",
            "player",
            attributes=player_attributes,
            pin=PinConstraint(role="client") if index != 3 else None,
        )
    )
    if index >= 2:
        # An in-stream enhancer: dropped when missing, or a mandatory
        # service reported missing.
        graph.add_spec(AbstractComponentSpec("eq", "equalizer", optional=index == 2))
        graph.connect("server", "eq", 1.0)
        graph.connect("eq", "player", 1.0)
    else:
        graph.connect("server", "player", 1.5)
    return graph


def composer_for(registry: ServiceRegistry, cache_size: int) -> ServiceComposer:
    return ServiceComposer(
        DiscoveryService(registry),
        CorrectionPolicy(catalog=TranscoderCatalog([Transcoding("MPEG", "WAV")])),
        cache_size=cache_size,
    )


def summary(result, spec_ids):
    """The result with inserted components renamed by order of appearance."""
    graph = result.graph
    if graph is None:
        components = edges = None
    else:
        names = {}
        for component in graph:
            cid = component.component_id
            names[cid] = cid if cid in spec_ids else f"inserted{len(names)}"
        components = [
            (names[c.component_id], c.service_type, c.pinned_to) for c in graph
        ]
        edges = [
            (names[e.source], names[e.target], e.throughput_mbps)
            for e in graph.edges()
        ]
    return (
        result.success,
        components,
        edges,
        result.dropped_optional,
        result.missing,
        result.expanded,
        result.discovery_queries,
    )


steps = st.one_of(
    st.tuples(
        st.just("compose"),
        st.integers(0, 3),
        st.integers(0, len(CLIENTS) - 1),
        st.integers(0, len(USER_QOS) - 1),
    ),
    st.tuples(st.just("bump"), st.integers(0, len(BUMPS) - 1)),
)


@given(st.lists(steps, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_cached_and_uncached_composers_agree(sequence):
    registry = base_registry()
    cached = composer_for(registry, cache_size=64)
    uncached = composer_for(registry, cache_size=0)
    for step in sequence:
        if step[0] == "bump":
            bump(registry, step[1])
            continue
        _, shape_index, client_index, qos_index = step
        client_id, client_class = CLIENTS[client_index]

        def request():
            return CompositionRequest(
                shape(shape_index),
                user_qos=USER_QOS[qos_index],
                client_device_id=client_id,
                client_device_class=client_class,
            )

        spec_ids = {spec.spec_id for spec in shape(shape_index)}
        assert summary(cached.compose(request()), spec_ids) == summary(
            uncached.compose(request()), spec_ids
        )
    assert uncached.cache_hits == 0
