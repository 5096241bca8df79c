"""Unit tests for the network topology and bandwidth accounting."""

import pytest

from repro.network.links import Link, LinkClass
from repro.network.topology import NetworkTopology


@pytest.fixture
def lan():
    """Three desktops behind a switch, a PDA behind a wireless AP."""
    net = NetworkTopology()
    for name in ("pc1", "pc2", "pc3"):
        net.connect(name, "switch", LinkClass.FAST_ETHERNET)
    net.connect("ap", "switch", LinkClass.FAST_ETHERNET)
    net.connect("pda", "ap", LinkClass.WLAN)
    return net


class TestPathComputation:
    def test_direct_pair(self, lan):
        assert lan.pair_capacity("pc1", "pc2") == 100.0

    def test_wireless_bottleneck(self, lan):
        assert lan.pair_capacity("pc1", "pda") == 5.0

    def test_latency_sums_over_path(self, lan):
        # pc1 -> switch -> ap -> pda: 0.5 + 0.5 + 5.0 ms.
        assert lan.path_latency_ms("pc1", "pda") == pytest.approx(6.0)

    def test_same_device_is_loopback(self, lan):
        assert lan.pair_capacity("pc1", "pc1") >= 1000.0
        assert lan.path_latency_ms("pc1", "pc1") < 0.1

    def test_disconnected_pair_has_zero_capacity(self, lan):
        lan.add_device("island")
        assert lan.pair_capacity("pc1", "island") == 0.0

    def test_widest_path_prefers_bandwidth(self):
        net = NetworkTopology()
        # Two routes a->b: direct 5 Mbps, via r 100 Mbps.
        net.connect("a", "b", LinkClass.WLAN)
        net.connect("a", "r", LinkClass.FAST_ETHERNET)
        net.connect("r", "b", LinkClass.FAST_ETHERNET)
        assert net.pair_capacity("a", "b") == 100.0

    def test_cache_invalidated_on_change(self, lan):
        assert lan.pair_capacity("pc1", "pda") == 5.0
        lan.add_link(Link("pc1", "pda", LinkClass.GIGABIT_ETHERNET))
        assert lan.pair_capacity("pc1", "pda") == 1000.0

    def test_remove_device_drops_links(self, lan):
        lan.remove_device("ap")
        assert lan.pair_capacity("pc1", "pda") == 0.0

    def test_remove_device_drops_overrides_and_reservations(self, lan):
        lan.set_pair_capacity("pc1", "pc2", 42.0)
        lan.reserve("pc1", "pc3", 10.0)
        lan.remove_device("pc1")
        # Re-attach: no stale override or reservation survives.
        lan.connect("pc1", "switch")
        assert lan.pair_capacity("pc1", "pc2") == 100.0
        assert lan.reserved_bandwidth("pc1", "pc3") == 0.0
        assert lan.active_reservations() == []

    def test_pair_capacity_override(self, lan):
        lan.set_pair_capacity("pc1", "pc2", 42.0)
        assert lan.pair_capacity("pc1", "pc2") == 42.0
        assert lan.pair_capacity("pc2", "pc1") == 42.0


class TestEdgeCases:
    def test_remove_unknown_device_rejected(self, lan):
        with pytest.raises(KeyError):
            lan.remove_device("ghost")

    def test_negative_pair_capacity_rejected(self, lan):
        with pytest.raises(ValueError):
            lan.set_pair_capacity("pc1", "pc2", -1.0)

    def test_unknown_endpoint_has_zero_capacity(self, lan):
        assert lan.pair_capacity("pc1", "ghost") == 0.0

    def test_partitioned_direct_link_keeps_its_latency(self, lan):
        lan.set_link_health("pda", "ap", 0.0)
        assert lan.path_latency_ms("pda", "ap") == pytest.approx(
            LinkClass.WLAN.default_latency_ms
        )

    def test_unreachable_pair_falls_back_to_a_nominal_hop(self, lan):
        lan.add_device("island")
        assert lan.path_latency_ms("pc1", "island") == pytest.approx(
            LinkClass.FAST_ETHERNET.default_latency_ms
        )

    def test_listing_is_sorted_and_complete(self, lan):
        assert lan.devices() == ["ap", "pc1", "pc2", "pc3", "pda", "switch"]
        assert len(lan.links()) == 5


class TestReservations:
    def test_reserve_reduces_availability(self, lan):
        lan.reserve("pc1", "pc2", 30.0)
        assert lan.available_bandwidth("pc1", "pc2") == 70.0

    def test_release_restores(self, lan):
        reservation = lan.reserve("pc1", "pc2", 30.0)
        lan.release(reservation)
        assert lan.available_bandwidth("pc1", "pc2") == 100.0

    def test_release_idempotent(self, lan):
        reservation = lan.reserve("pc1", "pc2", 30.0)
        lan.release(reservation)
        lan.release(reservation)
        assert lan.available_bandwidth("pc1", "pc2") == 100.0

    def test_over_reservation_rejected(self, lan):
        with pytest.raises(ValueError):
            lan.reserve("pc1", "pda", 6.0)

    def test_reservations_accumulate(self, lan):
        lan.reserve("pc1", "pda", 3.0)
        with pytest.raises(ValueError):
            lan.reserve("pc1", "pda", 3.0)

    def test_direction_agnostic_accounting(self, lan):
        lan.reserve("pc1", "pc2", 60.0)
        assert lan.available_bandwidth("pc2", "pc1") == 40.0

    def test_loopback_reservation_is_free(self, lan):
        reservation = lan.reserve("pc1", "pc1", 10_000.0)
        assert lan.available_bandwidth("pc1", "pc1") > 0
        lan.release(reservation)

    def test_active_reservations_listed(self, lan):
        lan.reserve("pc1", "pc2", 1.0)
        lan.reserve("pc1", "pc3", 2.0)
        assert len(lan.active_reservations()) == 2

    def test_negative_reservation_rejected(self, lan):
        with pytest.raises(ValueError):
            lan.reserve("pc1", "pc2", -1.0)


class TestLinkHealth:
    def test_degrade_scales_direct_capacity(self, lan):
        healthy = lan.pair_capacity("pc1", "switch")
        lan.set_link_health("pc1", "switch", 0.25)
        assert lan.pair_capacity("pc1", "switch") == pytest.approx(healthy * 0.25)
        assert lan.link_health("pc1", "switch") == 0.25

    def test_degrade_applies_along_multi_hop_paths(self, lan):
        healthy = lan.pair_capacity("pc1", "pc2")
        lan.set_link_health("pc2", "switch", 0.5)
        assert lan.pair_capacity("pc1", "pc2") == pytest.approx(healthy * 0.5)

    def test_partition_zeroes_the_pair(self, lan):
        lan.set_link_health("pda", "ap", 0.0)
        assert lan.pair_capacity("pda", "ap") == 0.0
        assert lan.pair_capacity("pda", "pc1") == 0.0

    def test_health_scales_pinned_override(self, lan):
        lan.set_pair_capacity("pc1", "pc2", 40.0)
        lan.set_link_health("pc1", "pc2", 0.5)
        assert lan.pair_capacity("pc1", "pc2") == pytest.approx(20.0)

    def test_clear_restores_and_forgets(self, lan):
        healthy = lan.pair_capacity("pc1", "switch")
        lan.set_link_health("pc1", "switch", 0.1)
        lan.clear_link_health("pc1", "switch")
        assert lan.pair_capacity("pc1", "switch") == pytest.approx(healthy)
        assert lan.degraded_pairs() == []

    def test_degraded_pairs_listed_sorted(self, lan):
        lan.set_link_health("pc2", "switch", 0.5)
        lan.set_link_health("ap", "switch", 0.9)
        assert lan.degraded_pairs() == [("ap", "switch"), ("pc2", "switch")]

    def test_remove_device_drops_health_entries(self, lan):
        lan.set_link_health("pc1", "switch", 0.5)
        lan.remove_device("pc1")
        assert lan.degraded_pairs() == []

    def test_out_of_range_factor_rejected(self, lan):
        with pytest.raises(ValueError):
            lan.set_link_health("pc1", "switch", 1.5)
        with pytest.raises(ValueError):
            lan.set_link_health("pc1", "switch", -0.1)
