"""Unit tests for cluster digests, the digest board, and the WAN fabric."""

import pytest

from repro.federation import ClusterDigest, DigestBoard, FederationFabric
from tests.federation.conftest import two_cluster_federation


def digest(cluster="c0", version=1, **overrides):
    fields = dict(
        cluster=cluster,
        version=version,
        shard_count=1,
        queue_depth=2,
        queue_capacity=8,
        utilization=0.5,
        load_score=0.75,
        headroom=0.625,
        ladder_headroom=1.0,
        service_types=("audio-player", "audio-server"),
    )
    fields.update(overrides)
    return ClusterDigest(**fields)


class TestClusterDigest:
    def test_occupancy(self):
        assert digest().occupancy == pytest.approx(0.25)
        assert digest(queue_capacity=0).occupancy == 1.0

    def test_can_serve(self):
        d = digest()
        assert d.can_serve(None)
        assert d.can_serve("audio-player")
        assert not d.can_serve("video-transcoder")

    def test_as_dict_rounds_floats(self):
        d = digest(utilization=1 / 3)
        payload = d.as_dict()
        assert payload["utilization"] == round(1 / 3, 6)
        assert payload["service_types"] == ["audio-player", "audio-server"]


class TestDigestBoard:
    def test_publish_replaces_by_cluster(self):
        board = DigestBoard()
        board.publish(digest(version=1))
        board.publish(digest(version=7))
        assert len(board) == 1
        assert board.get("c0").version == 7
        assert board.published_version("c0") == 7
        assert board.published_version("ghost") is None

    def test_digests_sorted_by_name(self):
        board = DigestBoard()
        board.publish(digest(cluster="zeta"))
        board.publish(digest(cluster="alpha"))
        assert [d.cluster for d in board.digests()] == ["alpha", "zeta"]


class TestMemberDigest:
    def test_member_digest_summarizes_shards(self):
        tier, _testbeds = two_cluster_federation(queue_capacity=8)
        member = tier.member("cluster0")
        d = member.digest()
        assert d.cluster == "cluster0"
        assert d.shard_count == 1
        assert d.queue_capacity == 8
        assert d.queue_depth == 0
        assert 0.0 <= d.headroom <= 1.0
        assert d.ladder_headroom >= d.headroom  # scaled by 0.45 rung
        assert "audio_player" in d.service_types

    def test_version_counter_cadence(self):
        tier, testbeds = two_cluster_federation()
        member = tier.member("cluster0")
        board = tier.board
        assert member.maybe_publish(board)  # never published: always goes
        assert not member.maybe_publish(board)  # nothing changed since

    def test_publish_after_state_change(self):
        tier, _testbeds = two_cluster_federation()
        member = tier.member("cluster0")
        member.maybe_publish(tier.board)
        # Any queue/ledger/membership movement advances the counter.
        shard = member.cluster.shards[0]
        shard.configurator.server.domain._membership_version += 0  # no-op
        before = member.state_version()
        device = shard.configurator.server.available_devices()[0]
        shard.configurator.server.leave(device.device_id)
        assert member.state_version() > before
        assert member.maybe_publish(tier.board)


class TestFabric:
    def test_default_link_created_on_demand(self):
        fabric = FederationFabric(
            default_bandwidth_mbps=25.0, default_latency_ms=10.0
        )
        link = fabric.link("a", "b")
        assert link.bandwidth_mbps == 25.0
        assert fabric.link("b", "a") is link  # unordered pair

    def test_partition_and_heal(self):
        fabric = FederationFabric()
        assert fabric.reachable("a", "b")
        fabric.set_partition("a", "b")
        assert not fabric.reachable("a", "b")
        assert not fabric.reachable("b", "a")
        fabric.heal("a", "b")
        assert fabric.reachable("a", "b")

    def test_self_is_always_reachable_and_free(self):
        fabric = FederationFabric()
        assert fabric.reachable("a", "a")
        assert fabric.transfer_time_s("a", "a", 1000.0) == 0.0
        with pytest.raises(ValueError):
            fabric.link("a", "a")

    def test_transfer_cost_scales_with_bandwidth(self):
        fast = FederationFabric(default_bandwidth_mbps=100.0)
        slow = FederationFabric(default_bandwidth_mbps=1.0)
        assert slow.transfer_time_s("a", "b", 64.0) > fast.transfer_time_s(
            "a", "b", 64.0
        )

    def test_connect_overrides_the_defaults(self):
        fabric = FederationFabric(default_bandwidth_mbps=25.0)
        link = fabric.connect("b", "a", latency_ms=5.0)
        assert (link.a, link.b) == ("a", "b")
        assert (link.bandwidth_mbps, link.latency_ms) == (25.0, 5.0)
        assert fabric.link("a", "b") is link

    def test_connect_replaces_a_partitioned_link(self):
        fabric = FederationFabric()
        fabric.set_partition("a", "b")
        fabric.connect("a", "b", bandwidth_mbps=10.0)
        assert fabric.reachable("a", "b")
        assert fabric.link("a", "b").bandwidth_mbps == 10.0

    def test_connect_rejects_self_links_and_bad_figures(self):
        fabric = FederationFabric()
        with pytest.raises(ValueError, match="itself"):
            fabric.connect("a", "a")
        with pytest.raises(ValueError, match="latency"):
            fabric.connect("a", "b", latency_ms=-1.0)
        with pytest.raises(ValueError, match="bandwidth"):
            fabric.connect("a", "b", bandwidth_mbps=0.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FederationFabric(default_bandwidth_mbps=0.0)
        with pytest.raises(ValueError):
            FederationFabric(default_latency_ms=-1.0)
        fabric = FederationFabric()
        with pytest.raises(ValueError):
            fabric.connect("a", "b", bandwidth_mbps=-5.0)
