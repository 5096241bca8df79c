"""Shared helpers for the federation-tier tests."""

from dataclasses import replace

from repro.apps.audio_on_demand import audio_request
from repro.federation import FederatedRequest
from repro.scenarios import build_federation, load_catalog_scenario
from repro.server.service import ServerRequest


def audio_federation(
    clusters, queue_capacity=16, shards=1, escalation=True, clock=None
):
    """An ``audio_lab`` federation plus its per-member testbeds."""
    spec = load_catalog_scenario("audio_lab")
    spec = replace(
        spec,
        server=replace(spec.server, queue_capacity=queue_capacity),
        cluster=replace(spec.cluster, shards=shards),
        federation=replace(
            spec.federation, clusters=clusters, escalation=escalation
        ),
    )
    return build_federation(spec, clock=clock)


def two_cluster_federation(queue_capacity=16, **kwargs):
    """A 2-cluster audio federation plus its per-member testbeds."""
    return audio_federation(2, queue_capacity=queue_capacity, **kwargs)


def federated_request(
    testbeds,
    rid="req-0",
    home="cluster0",
    client="desktop2",
    service_type=None,
    **server_kwargs,
):
    """A FederatedRequest whose composition targets the serving member."""

    def make(member):
        return ServerRequest(
            request_id=rid,
            composition=audio_request(testbeds[member.name][0], client),
            user_id="alice",
            **server_kwargs,
        )

    return FederatedRequest(
        request_id=rid, home=home, make_request=make, service_type=service_type
    )


def admit_one(tier, testbeds, rid="req-0", home="cluster0"):
    """Submit one request, drain its serving shard, return the session."""
    placed = tier.submit(federated_request(testbeds, rid=rid, home=home))
    member = tier.member(placed.member)
    member.cluster.shards[placed.placed.shard].drain()
    outcome = tier.outcome(rid)
    assert outcome is not None and outcome.admitted
    assert outcome.session is not None and outcome.session.running
    return outcome.session
