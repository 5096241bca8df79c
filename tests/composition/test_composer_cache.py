"""The composer's composition cache: shared frozen hits, and invalidation."""

import pytest

from repro.composition.composer import CompositionRequest, ServiceComposer
from repro.composition.corrections import CorrectionPolicy
from repro.discovery.registry import ServiceDescription, ServiceRegistry
from repro.discovery.service import DiscoveryService
from repro.graph.abstract import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    PinConstraint,
)
from repro.graph.service_graph import FrozenGraphError, ServiceComponent
from repro.qos.translation import Transcoding, TranscoderCatalog
from repro.qos.vectors import QoSVector
from repro.resources.vectors import ResourceVector


def template(service_type: str, **kwargs) -> ServiceComponent:
    return ServiceComponent(
        component_id=f"template/{service_type}",
        service_type=service_type,
        resources=ResourceVector(memory=8, cpu=0.1),
        **kwargs,
    )


@pytest.fixture
def registry():
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
            service_type="wav_player",
            provider_id="player#1",
            component_template=template(
                "wav_player",
                qos_input=QoSVector(format="WAV", frame_rate=(10.0, 40.0)),
            ),
        )
    )
    return registry


@pytest.fixture
def composer(registry):
    catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
    return ServiceComposer(
        DiscoveryService(registry), CorrectionPolicy(catalog=catalog)
    )


def simple_abstract() -> AbstractServiceGraph:
    graph = AbstractServiceGraph(name="app")
    graph.add_spec(AbstractComponentSpec("server", "media_server"))
    graph.add_spec(
        AbstractComponentSpec(
            "player", "wav_player", pin=PinConstraint(role="client")
        )
    )
    graph.connect("server", "player", 1.5)
    return graph


class TestCacheHits:
    def test_identical_requests_hit(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        first = composer.compose(request)
        second = composer.compose(request)
        assert composer.cache_hits == 1
        assert composer.cache_misses == 1
        assert second.success == first.success
        assert [c.component_id for c in second.graph] == [
            c.component_id for c in first.graph
        ]
        # Modeled overhead stays deterministic whether or not the cache hit.
        assert second.discovery_queries == first.discovery_queries

    def test_hit_skips_discovery_work(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        composer.compose(request)
        queries_after_cold = composer.discovery.query_count
        composer.compose(request)
        assert composer.discovery.query_count == queries_after_cold

    def test_cached_results_share_one_frozen_graph(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        first = composer.compose(request)
        second = composer.compose(request)
        assert second.graph is first.graph
        assert first.graph.frozen
        # A shared graph refuses mutation; callers mutate a copy.
        with pytest.raises(FrozenGraphError):
            first.graph.update_component(
                template("media_server").renamed("server").with_pin("elsewhere")
            )
        third = composer.compose(request)
        assert third.graph is first.graph
        assert third.graph.component("server").pinned_to == "serverbox"
        assert not first.graph.copy().frozen
        # The result's own containers are still private to each caller.
        second.dropped_optional.append("server")
        assert third.dropped_optional == []


class TestCacheInvalidation:
    def test_registry_change_invalidates(self, composer, registry):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        composer.compose(request)
        registry.register(
            ServiceDescription(
                service_type="wav_player",
                provider_id="player#2",
                component_template=template(
                    "wav_player",
                    qos_input=QoSVector(format="WAV", frame_rate=(10.0, 40.0)),
                ),
            )
        )
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 2

    def test_abstract_graph_growth_invalidates(self, composer):
        abstract = simple_abstract()
        request = CompositionRequest(abstract, client_device_id="pda1")
        composer.compose(request)
        abstract.add_spec(
            AbstractComponentSpec("extra", "media_server", optional=True)
        )
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 2

    def test_different_request_parameters_miss(self, composer):
        abstract = simple_abstract()
        composer.compose(CompositionRequest(abstract, client_device_id="pda1"))
        composer.compose(CompositionRequest(abstract, client_device_id="pda2"))
        composer.compose(
            CompositionRequest(
                abstract, client_device_id="pda1", preferred_devices=("pc1",)
            )
        )
        assert composer.cache_hits == 0
        assert composer.cache_misses == 3



class TestStructuralKey:
    """The cache keys on the abstract graph's structure, not its identity."""

    def test_equal_fresh_graph_hits_the_cached_graph(self, composer):
        first = composer.compose(
            CompositionRequest(simple_abstract(), client_device_id="pda1")
        )
        # Request builders make a fresh graph per request; equal structure
        # is the same request class.
        second = composer.compose(
            CompositionRequest(simple_abstract(), client_device_id="pda1")
        )
        assert composer.cache_hits == 1
        assert composer.cache_misses == 1
        assert second.success and first.success
        assert second.graph is first.graph
        with pytest.raises(FrozenGraphError):
            second.graph.update_component(
                template("media_server").renamed("server").with_pin("elsewhere")
            )
        third = composer.compose(
            CompositionRequest(simple_abstract(), client_device_id="pda1")
        )
        assert third.graph is first.graph
        assert third.graph.component("server").pinned_to == "serverbox"

    @pytest.mark.parametrize(
        "variant",
        [
            {"throughput": 3.0},
            {"player": {"attributes": (("codec", "wav"),)}},
            {"player": {"optional": True}},
            {"player": {"pin": PinConstraint(device_id="pda1")}},
            {"player": {"required_output": QoSVector(frame_rate=(20.0, 30.0))}},
        ],
        ids=["edge-throughput", "attributes", "optional", "pin", "required-output"],
    )
    def test_same_name_and_size_with_one_difference_misses(self, composer, variant):
        composer.compose(
            CompositionRequest(simple_abstract(), client_device_id="pda1")
        )
        changed = AbstractServiceGraph(name="app")
        changed.add_spec(AbstractComponentSpec("server", "media_server"))
        player = {"pin": PinConstraint(role="client"), **variant.get("player", {})}
        changed.add_spec(AbstractComponentSpec("player", "wav_player", **player))
        changed.connect("server", "player", variant.get("throughput", 1.5))
        assert len(changed) == len(simple_abstract())
        composer.compose(CompositionRequest(changed, client_device_id="pda1"))
        assert composer.cache_hits == 0
        assert composer.cache_misses == 2

    def test_growth_after_memoizing_invalidates_the_key(self):
        abstract = simple_abstract()
        before = abstract.structure_key
        assert abstract.structure_key is before
        abstract.add_spec(
            AbstractComponentSpec("extra", "media_server", optional=True)
        )
        assert abstract.structure_key != before
        assert abstract.structure_key != simple_abstract().structure_key


class TestCacheControls:
    def test_cache_disabled_with_size_zero(self, registry):
        catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
        composer = ServiceComposer(
            DiscoveryService(registry),
            CorrectionPolicy(catalog=catalog),
            cache_size=0,
        )
        request = CompositionRequest(simple_abstract(), client_device_id="pda1")
        composer.compose(request)
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 0

    def test_profiler_bypasses_cache(self, registry):
        class StubProfiler:
            def estimate(self, service_type):
                return None

        catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
        composer = ServiceComposer(
            DiscoveryService(registry),
            CorrectionPolicy(catalog=catalog),
            profiler=StubProfiler(),
        )
        request = CompositionRequest(simple_abstract(), client_device_id="pda1")
        composer.compose(request)
        composer.compose(request)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 0

    def test_lru_evicts_oldest(self, registry):
        catalog = TranscoderCatalog([Transcoding("MPEG", "WAV")])
        composer = ServiceComposer(
            DiscoveryService(registry),
            CorrectionPolicy(catalog=catalog),
            cache_size=1,
        )
        abstract = simple_abstract()
        request_a = CompositionRequest(abstract, client_device_id="pda1")
        request_b = CompositionRequest(abstract, client_device_id="pda2")
        composer.compose(request_a)
        composer.compose(request_b)  # evicts request_a's entry
        composer.compose(request_a)
        assert composer.cache_hits == 0
        assert composer.cache_misses == 3

    def test_negative_cache_size_rejected(self, registry):
        with pytest.raises(ValueError):
            ServiceComposer(DiscoveryService(registry), cache_size=-1)
