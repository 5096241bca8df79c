"""Functional tests for the federation tier's digest routing."""

import pytest

from repro.federation import FederationMember, FederationTier
from repro.server.service import RequestOutcome, RequestStatus
from tests.federation.conftest import (
    admit_one,
    federated_request,
    two_cluster_federation,
)


def fill_queue(tier, testbeds, name, prefix="fill"):
    """Queue requests at one member until its bounded queue is full."""
    member = tier.member(name)
    shard = member.cluster.shards[0]
    index = 0
    while shard.queue.depth < shard.queue.capacity:
        shard.submit(
            federated_request(
                testbeds, rid=f"{prefix}-{name}-{index}", home=name
            ).make_request(member)
        )
        index += 1


class TestValidation:
    def test_needs_members(self):
        with pytest.raises(ValueError):
            FederationTier([])

    def test_unique_member_names(self):
        tier, _ = two_cluster_federation()
        member = tier.members[0]
        with pytest.raises(ValueError):
            FederationTier([member, member])

    def test_member_parameters_validated(self):
        tier, _ = two_cluster_federation()
        cluster = tier.members[0].cluster
        with pytest.raises(ValueError):
            FederationMember("", cluster)
        with pytest.raises(ValueError):
            FederationMember("x", cluster, min_demand_scale=0.0)
        with pytest.raises(ValueError):
            FederationTier(tier.members, headroom_floor=1.5)
        with pytest.raises(ValueError):
            FederationTier(tier.members, digest_cadence=0)

    def test_unknown_home_rejected(self):
        tier, testbeds = two_cluster_federation()
        with pytest.raises(KeyError):
            tier.submit(federated_request(testbeds, home="nowhere"))


class TestRouting:
    def test_healthy_home_admits_locally(self):
        tier, testbeds = two_cluster_federation()
        placed = tier.submit(federated_request(testbeds))
        assert placed.member == "cluster0"
        assert not placed.escalated
        assert placed.attempts == ("cluster0",)
        assert tier.registry.counter("federation.local").value == 1

    def test_home_shed_escalates_to_sibling(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        placed = tier.submit(federated_request(testbeds, rid="req-x"))
        assert placed.escalated
        assert placed.member == "cluster1"
        assert placed.attempts == ("cluster0", "cluster1")
        assert placed.placed.outcome.status is RequestStatus.QUEUED
        registry = tier.registry
        assert registry.counter("federation.escalations").value == 1
        assert registry.counter("federation.escalation_queued").value == 1
        assert registry.counter("federation.escalation_attempts").value == 1

    def test_saturated_home_tried_last(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        tier.headroom_floor = 0.6  # full queue → headroom 0.5 < floor
        fill_queue(tier, testbeds, "cluster0")
        placed = tier.submit(federated_request(testbeds, rid="req-x"))
        # The sibling is tried first; the saturated home is never needed.
        assert placed.attempts == ("cluster1",)
        assert placed.escalated
        assert placed.member == "cluster1"

    def test_escalation_disabled_stays_home(self):
        tier, testbeds = two_cluster_federation(
            queue_capacity=1, escalation=False
        )
        fill_queue(tier, testbeds, "cluster0")
        placed = tier.submit(federated_request(testbeds, rid="req-x"))
        assert not placed.escalated
        assert placed.member == "cluster0"
        assert placed.placed.outcome.status is RequestStatus.SHED

    def test_shed_everywhere_is_one_final_shed(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        fill_queue(tier, testbeds, "cluster1")
        placed = tier.submit(federated_request(testbeds, rid="req-x"))
        assert placed.placed.outcome.status is RequestStatus.SHED
        assert placed.attempts == ("cluster0", "cluster1")
        assert tier.registry.counter("federation.escalation_reshed").value == 1

    def test_unserveable_type_never_escalates(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        placed = tier.submit(
            federated_request(
                testbeds, rid="req-x", service_type="video_wall"
            )
        )
        # No sibling advertises the type, so the shed is final at home.
        assert placed.attempts == ("cluster0",)
        assert placed.placed.outcome.status is RequestStatus.SHED

    def test_serveable_type_passes_reachability_filter(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        placed = tier.submit(
            federated_request(
                testbeds, rid="req-x", service_type="audio_player"
            )
        )
        assert placed.member == "cluster1"


class TestResults:
    def test_session_runs_in_escalated_member(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        session = admit_one(tier, testbeds, rid="req-x")
        assert tier.member("cluster1").cluster.session_of("req-x") is session
        assert tier.member("cluster0").cluster.session_of("req-x") is None
        assert session.running
        assert tier.member("cluster1").cluster.session_of("missing") is None
        session.stop()
        assert tier.member("cluster1").cluster.session_of("req-x") is None

    def test_escalation_outcomes_count_each_decision_once(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        admit_one(tier, testbeds, rid="req-x")  # rescued at cluster1
        fill_queue(tier, testbeds, "cluster1")
        tier.submit(federated_request(testbeds, rid="req-y"))  # shed twice
        routing = tier.metrics.snapshot()["routing"]
        assert routing["escalations"] == 2
        assert routing["escalation_outcomes"] == {
            "admitted": 1,
            "degraded": 0,
            "failed": 0,
            "shed": 1,
        }
        # Nothing is left in flight, and a repeated report counts nothing.
        assert not tier._escalating
        tier.served(RequestOutcome("req-x", RequestStatus.ADMITTED))
        routing = tier.metrics.snapshot()["routing"]
        assert routing["escalation_outcomes"]["admitted"] == 1

    def test_audit_unions_members(self):
        tier, testbeds = two_cluster_federation()
        admit_one(tier, testbeds)
        assert tier.audit() == []


class TestMetrics:
    def test_snapshot_corrects_escalation_double_submission(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        fill_queue(tier, testbeds, "cluster1")
        tier.submit(federated_request(testbeds, rid="req-x"))
        snapshot = tier.metrics.snapshot()
        whole = snapshot["federation"]
        # One distinct request, shed twice on its way down: the member
        # sheds sum to 2, the federation reports exactly 1 final shed.
        assert whole["submitted"] == 1
        assert whole["shed_final"] == 1
        members_shed = sum(
            m["cluster"]["shed_final"] for m in snapshot["members"].values()
        )
        assert members_shed == 2
        assert snapshot["routing"]["escalation_attempts"] == 1
        assert whole["derived"]["shed_rate"] == 1.0

    def test_snapshot_counts_admits_across_members(self):
        tier, testbeds = two_cluster_federation(queue_capacity=1)
        fill_queue(tier, testbeds, "cluster0")
        admit_one(tier, testbeds, rid="req-x")  # rescued at cluster1
        snapshot = tier.metrics.snapshot()
        assert snapshot["federation"]["admitted"] == 1
        assert snapshot["routing"]["routed"]["cluster1"] == 1
        assert snapshot["federation"]["member_count"] == 2

    def test_to_json_deterministic(self):
        tier, testbeds = two_cluster_federation()
        admit_one(tier, testbeds)
        assert tier.metrics.to_json() == tier.metrics.to_json()
        assert tier.metrics.to_json(extra={"seed": 1}) != tier.metrics.to_json()


class TestDigestCadence:
    def test_cadence_suppresses_unchanged_republish(self):
        tier, testbeds = two_cluster_federation()
        first = tier.publish_digests()
        assert first == 2
        # Nothing moved: no member republishes.
        assert tier.publish_digests() == 0
        # A submit changes cluster0's queue/ledger state.
        admit_one(tier, testbeds)
        assert tier.board.get("cluster0") is not None

    def test_force_republishes_everyone(self):
        tier, _testbeds = two_cluster_federation()
        tier.publish_digests()
        assert tier.publish_digests(force=True) == 2

    def test_high_cadence_batches_publishes(self):
        tier, testbeds = two_cluster_federation()
        tier.digest_cadence = 1000
        tier.publish_digests()
        admit_one(tier, testbeds)
        # The version counter moved, but far less than the cadence.
        assert tier.publish_digests() == 0
