"""Soft QoS matching: discovery returns the *closest* instance, not exact."""

from repro.composition.composer import CompositionRequest, ServiceComposer
from repro.composition.corrections import CorrectionPolicy
from repro.discovery.registry import ServiceDescription, ServiceRegistry
from repro.discovery.service import DiscoveryService
from repro.graph.abstract import AbstractComponentSpec, AbstractServiceGraph
from repro.graph.service_graph import ServiceComponent
from repro.qos.translation import Transcoding, TranscoderCatalog
from repro.qos.vectors import QoSVector
from repro.resources.vectors import ResourceVector


def player(provider_id, fmt):
    return ServiceDescription(
        service_type="player",
        provider_id=provider_id,
        component_template=ServiceComponent(
            component_id="tpl",
            service_type="player",
            qos_input=QoSVector(format=fmt),
            qos_output=QoSVector(format=fmt),
            resources=ResourceVector(memory=4, cpu=0.05),
        ),
        attributes=(("format", fmt),),
    )


class TestClosestMatch:
    def test_paper_example_jpeg_for_mpeg(self):
        """'The discovery service can only find a JPEG player ... although
        an MPEG player is requested' — composition still proceeds, and the
        OC algorithm inserts the translation."""
        registry = ServiceRegistry()
        registry.register(
            ServiceDescription(
                service_type="video_source",
                provider_id="src",
                component_template=ServiceComponent(
                    component_id="tpl-src",
                    service_type="video_source",
                    qos_output=QoSVector(format="MPEG", frame_rate=25),
                    resources=ResourceVector(memory=8, cpu=0.1),
                ),
            )
        )
        registry.register(player("jpeg-player", "JPEG"))

        abstract = AbstractServiceGraph(name="viewer")
        abstract.add_spec(AbstractComponentSpec("source", "video_source"))
        abstract.add_spec(
            AbstractComponentSpec(
                "viewer",
                "player",
                attributes=(("format", "MPEG"),),  # wanted, not available
            )
        )
        abstract.connect("source", "viewer", 2.0)

        catalog = TranscoderCatalog(
            [Transcoding("MPEG", "MJPEG"), Transcoding("MJPEG", "JPEG")]
        )
        composer = ServiceComposer(
            DiscoveryService(registry), CorrectionPolicy(catalog=catalog)
        )
        result = composer.compose(CompositionRequest(abstract))
        assert result.success
        # The JPEG player was accepted despite the attribute mismatch,
        # and a two-hop transcoding chain bridges MPEG -> JPEG.
        transcoders = [
            cid for cid in result.graph.component_ids() if "transcoder" in cid
        ]
        assert len(transcoders) == 2

    def test_better_attribute_match_preferred_when_available(self):
        registry = ServiceRegistry()
        registry.register(player("jpeg-player", "JPEG"))
        registry.register(player("mpeg-player", "MPEG"))
        service = DiscoveryService(registry)
        spec = AbstractComponentSpec(
            "viewer", "player", attributes=(("format", "MPEG"),)
        )
        assert service.discover(spec).provider_id == "mpeg-player"
