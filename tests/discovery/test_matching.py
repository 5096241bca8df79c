"""Unit tests for the closest-match scorer."""

import pytest

from repro.discovery.matching import DiscoveryContext, MatchScorer, MatchWeights
from repro.discovery.registry import ServiceDescription
from repro.graph.abstract import AbstractComponentSpec, PinConstraint
from repro.graph.service_graph import ServiceComponent
from repro.qos.vectors import QoSVector


def describe(
    service_type="player",
    attributes=(),
    qos_output=None,
    capabilities=None,
    hosted_on=None,
    platforms=frozenset(),
):
    template = ServiceComponent(
        component_id="tpl",
        service_type=service_type,
        qos_output=qos_output or QoSVector(),
        output_capabilities=capabilities or QoSVector(),
        adjustable_outputs=frozenset(
            capabilities.names() if capabilities else ()
        ),
    )
    return ServiceDescription(
        service_type=service_type,
        provider_id="p",
        component_template=template,
        attributes=tuple(attributes),
        hosted_on=hosted_on,
        platforms=platforms,
    )


class TestWeights:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            MatchWeights(attributes=0.5, qos=0.5, locality=0.5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MatchWeights(attributes=-0.2, qos=0.8, locality=0.4)


class TestHardConstraints:
    def test_type_mismatch_returns_none(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec("s", "recorder")
        assert scorer.score(describe("player"), spec) is None

    def test_client_pin_requires_platform_support(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec(
            "s", "player", pin=PinConstraint(role="client")
        )
        context = DiscoveryContext(client_device_class="pda")
        pc_only = describe(platforms=frozenset({"pc"}))
        assert scorer.score(pc_only, spec, context) is None
        universal = describe()
        assert scorer.score(universal, spec, context) is not None

    def test_client_pin_rejects_instance_hosted_elsewhere(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec(
            "s", "player", pin=PinConstraint(role="client")
        )
        context = DiscoveryContext(client_device_id="pda1")
        elsewhere = describe(hosted_on="pc7")
        assert scorer.score(elsewhere, spec, context) is None
        at_client = describe(hosted_on="pda1")
        assert scorer.score(at_client, spec, context) is not None


class TestSoftScoring:
    def test_full_attribute_match_scores_higher(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec(
            "s", "player", attributes=(("codec", "mp3"), ("vendor", "acme"))
        )
        full = describe(attributes=(("codec", "mp3"), ("vendor", "acme")))
        half = describe(attributes=(("codec", "mp3"),))
        assert scorer.score(full, spec) > scorer.score(half, spec)

    def test_qos_capable_scores_higher(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec(
            "s", "player", required_output=QoSVector(frame_rate=(20.0, 40.0))
        )
        capable = describe(qos_output=QoSVector(frame_rate=30))
        incapable = describe(qos_output=QoSVector(frame_rate=5))
        assert scorer.score(capable, spec) > scorer.score(incapable, spec)

    def test_adjustable_capability_counts_as_satisfiable(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec(
            "s", "player", required_output=QoSVector(frame_rate=(20.0, 40.0))
        )
        tunable = describe(
            qos_output=QoSVector(frame_rate=60),
            capabilities=QoSVector(frame_rate=(5.0, 60.0)),
        )
        rigid = describe(qos_output=QoSVector(frame_rate=60))
        assert scorer.score(tunable, spec) > scorer.score(rigid, spec)

    def test_locality_prefers_nearby_instances(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec("s", "player")
        context = DiscoveryContext(preferred_devices=("pc1",))
        local = describe(hosted_on="pc1")
        remote = describe(hosted_on="far-away")
        repository = describe(hosted_on=None)
        local_score = scorer.score(local, spec, context)
        repo_score = scorer.score(repository, spec, context)
        remote_score = scorer.score(remote, spec, context)
        assert local_score > repo_score > remote_score

    def test_no_requirements_scores_full(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec("s", "player")
        context = DiscoveryContext(preferred_devices=("pc1",))
        assert scorer.score(describe(hosted_on="pc1"), spec, context) == pytest.approx(
            1.0
        )

    def test_user_qos_applied_to_client_pinned_spec(self):
        scorer = MatchScorer()
        spec = AbstractComponentSpec(
            "s", "player", pin=PinConstraint(role="client")
        )
        context = DiscoveryContext(user_qos=QoSVector(frame_rate=(20.0, 40.0)))
        meets = describe(qos_output=QoSVector(frame_rate=30))
        misses = describe(qos_output=QoSVector(frame_rate=5))
        assert scorer.score(meets, spec, context) > scorer.score(misses, spec, context)
