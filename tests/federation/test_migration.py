"""Cross-cluster migration: two-phase handoff, rollback, chaos partitions."""

import pytest

from repro.federation import MIGRATION_PHASES, SessionMigrator
from repro.runtime.session import SessionState
from tests.federation.conftest import admit_one, two_cluster_federation


def make_migrator(tier, **kwargs):
    return SessionMigrator(
        fabric=tier.fabric, registry=tier.registry, **kwargs
    )


def saturate(tier, name):
    """Allocate every device in one member's shard to full capacity."""
    shard = tier.member(name).cluster.shards[0]
    for device in shard.configurator.server.available_devices():
        device.allocate(device.available())


class TestSuccessfulMigration:
    def test_two_phase_handoff(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        session.record_progress(240.0)
        outcome = make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        assert outcome.success
        assert outcome.phase == "commit_release"
        # Origin released, destination running — exactly one live session.
        assert session.state is SessionState.STOPPED
        assert outcome.new_session.running
        assert outcome.new_session.session_id == f"{session.session_id}@cluster1"
        assert outcome.new_session.playback_position() == pytest.approx(240.0)
        assert tier.audit() == []

    def test_origin_devices_freed_after_commit_release(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        origin_shard = tier.member("cluster0").cluster.shards[0]
        make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        for device in origin_shard.configurator.server.available_devices():
            assert device.allocated.is_zero()

    def test_handoff_cost_includes_wan_transfer(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        outcome = make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        assert outcome.state_transfer_s > 0.0
        assert outcome.total_handoff_ms == pytest.approx(
            outcome.admission.service_time_s() * 1000.0
            + outcome.state_transfer_s * 1000.0
        )

    def test_phase_hook_sees_protocol_order(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        phases = []
        make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
            on_phase=phases.append,
        )
        # The checkpoint phase has no reach check, so the hook sees every
        # phase except it plus checkpoint via its own callback.
        assert tuple(phases) == MIGRATION_PHASES

    def test_counters(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        migrator = make_migrator(tier)
        migrator.migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        registry = tier.registry
        assert registry.counter("federation.migrations").value == 1
        assert registry.counter("federation.migration_committed").value == 1
        assert registry.counter("federation.migration_failed").value == 0
        assert registry.histogram("federation.migration_ms").count == 1


class TestFailedMigration:
    def test_destination_rejection_leaves_origin_untouched(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        saturate(tier, "cluster1")
        outcome = make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        assert not outcome.success
        assert outcome.phase == "admit"
        assert outcome.reason == "rejected"
        assert not outcome.rolled_back
        assert session.running
        assert session.deployment is not None

    def test_failed_migration_leaves_both_ledgers_balanced(self):
        """The satellite audit cross-check: a rejected cross-cluster
        migration must leave the origin ledger balanced (holds exactly
        matching the still-running origin session) and the destination
        ledger clean (its failed ladder walk released everything)."""
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        saturate(tier, "cluster1")
        make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        origin = tier.member("cluster0").cluster
        destination = tier.member("cluster1").cluster
        assert origin.audit() == []
        assert destination.audit() == []
        assert tier.audit() == []
        # And the origin can still release cleanly later.
        session.stop()
        assert origin.audit() == []
        for device in origin.shards[0].configurator.server.available_devices():
            assert device.allocated.is_zero()

    def test_partition_before_start_fails_fast(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        tier.fabric.set_partition("cluster0", "cluster1")
        outcome = make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        assert not outcome.success
        assert outcome.phase == "reach"
        assert outcome.reason == "partitioned"
        assert session.running
        assert tier.audit() == []

    def test_validation(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        migrator = make_migrator(tier)
        with pytest.raises(ValueError):
            migrator.migrate(
                session,
                origin=tier.member("cluster0"),
                destination=tier.member("cluster0"),
                new_client_device="desktop1",
            )
        session.stop()
        with pytest.raises(ValueError):
            migrator.migrate(
                session,
                origin=tier.member("cluster0"),
                destination=tier.member("cluster1"),
                new_client_device="desktop1",
            )


class TestMidMigrationPartition:
    """Chaos coverage: the WAN dies inside the two-phase window."""

    def partition_at(self, tier, phase_name):
        def on_phase(phase):
            if phase == phase_name:
                tier.fabric.set_partition("cluster0", "cluster1")

        return on_phase

    def test_partition_between_commit_and_release_rolls_back(self):
        """The acceptance window: the destination has committed holds,
        the origin has not yet released. A partition here must roll the
        destination back — no double-booked capacity, no orphaned holds,
        no duplicate active session."""
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        outcome = make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
            on_phase=self.partition_at(tier, "commit_release"),
        )
        assert not outcome.success
        assert outcome.phase == "commit_release"
        assert outcome.reason == "partitioned"
        assert outcome.rolled_back
        # The origin session never stopped serving.
        assert session.running
        assert session.deployment is not None
        # Both clusters' ledgers balanced; destination fully released.
        assert tier.member("cluster0").cluster.audit() == []
        assert tier.member("cluster1").cluster.audit() == []
        dest_server = (
            tier.member("cluster1").cluster.shards[0].configurator.server
        )
        for device in dest_server.available_devices():
            assert device.allocated.is_zero()
        # No duplicate active session anywhere: the rolled-back
        # destination session stopped, so it left the live table.
        shard = tier.member("cluster1").cluster.shards[0]
        assert f"{session.session_id}@cluster1" not in shard.configurator.sessions

    def test_partition_during_transfer_rolls_back(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        outcome = make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
            on_phase=self.partition_at(tier, "transfer"),
        )
        assert not outcome.success
        assert outcome.phase == "transfer"
        assert outcome.rolled_back
        assert session.running
        assert tier.audit() == []

    def test_rollback_counters(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        make_migrator(tier).migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
            on_phase=self.partition_at(tier, "commit_release"),
        )
        registry = tier.registry
        assert registry.counter("federation.migration_failed").value == 1
        assert registry.counter("federation.migration_rolled_back").value == 1
        assert registry.counter("federation.migration_committed").value == 0

    def test_healed_partition_allows_retry(self):
        tier, testbeds = two_cluster_federation()
        session = admit_one(tier, testbeds)
        migrator = make_migrator(tier)
        first = migrator.migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
            on_phase=self.partition_at(tier, "commit_release"),
        )
        assert not first.success and session.running
        tier.fabric.heal("cluster0", "cluster1")
        second = migrator.migrate(
            session,
            origin=tier.member("cluster0"),
            destination=tier.member("cluster1"),
            new_client_device="desktop1",
        )
        assert second.success
        assert session.state is SessionState.STOPPED
        assert second.new_session.running
        assert tier.audit() == []
