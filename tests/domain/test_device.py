"""Unit tests for device resource accounting."""

import pytest

from repro.domain.device import (
    Device,
    DeviceClass,
    DeviceOfflineError,
    InsufficientResourcesError,
)
from repro.resources.normalization import paper_normalizer
from repro.resources.vectors import ResourceVector


def make_device(memory=100.0, cpu=1.0) -> Device:
    return Device("dev", capacity=ResourceVector(memory=memory, cpu=cpu))


class TestConstruction:
    def test_requires_exactly_one_capacity_form(self):
        with pytest.raises(ValueError):
            Device("d")
        with pytest.raises(ValueError):
            Device(
                "d",
                capacity=ResourceVector(memory=1),
                raw_capacity=ResourceVector(memory=1),
            )

    def test_raw_capacity_requires_normalizer(self):
        with pytest.raises(ValueError):
            Device("d", raw_capacity=ResourceVector(memory=1))

    def test_raw_capacity_normalised_through_device_class(self):
        device = Device(
            "pda1",
            DeviceClass.PDA,
            raw_capacity=ResourceVector(memory=32, cpu=1.0),
            normalizer=paper_normalizer(),
        )
        assert device.capacity == ResourceVector(memory=32, cpu=0.4)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Device("", capacity=ResourceVector())


class TestAllocation:
    def test_allocate_reduces_availability(self):
        device = make_device()
        device.allocate(ResourceVector(memory=40))
        assert device.available()["memory"] == 60

    def test_release_restores(self):
        device = make_device()
        allocation = device.allocate(ResourceVector(memory=40))
        device.release(allocation)
        assert device.available() == device.capacity

    def test_release_idempotent(self):
        device = make_device()
        allocation = device.allocate(ResourceVector(memory=40))
        device.release(allocation)
        device.release(allocation)
        assert device.available()["memory"] == 100

    def test_over_allocation_rejected(self):
        device = make_device(memory=10)
        with pytest.raises(InsufficientResourcesError):
            device.allocate(ResourceVector(memory=11))

    def test_can_host(self):
        device = make_device(memory=10)
        assert device.can_host(ResourceVector(memory=10))
        assert not device.can_host(ResourceVector(memory=11))

    def test_utilization(self):
        device = make_device(memory=100, cpu=1.0)
        device.allocate(ResourceVector(memory=25, cpu=0.5))
        utilization = device.utilization()
        assert utilization["memory"] == pytest.approx(0.25)
        assert utilization["cpu"] == pytest.approx(0.5)

    def test_active_allocations_tracked(self):
        device = make_device()
        device.allocate(ResourceVector(memory=1), owner="app1")
        device.allocate(ResourceVector(memory=2), owner="app2")
        owners = {a.owner for a in device.active_allocations()}
        assert owners == {"app1", "app2"}


class TestLifecycle:
    def test_offline_device_has_no_availability(self):
        device = make_device()
        device.go_offline()
        assert device.available().is_zero()

    def test_offline_device_rejects_allocation(self):
        device = make_device()
        device.go_offline()
        with pytest.raises(DeviceOfflineError):
            device.allocate(ResourceVector(memory=1))

    def test_crash_voids_allocations(self):
        device = make_device()
        device.allocate(ResourceVector(memory=40))
        device.go_offline()
        device.go_online()
        assert device.available() == device.capacity

    def test_online_flag(self):
        device = make_device()
        assert device.online
        device.go_offline()
        assert not device.online


class TestAvailableMemo:
    """available() is memoized on state_version; every mutation shows."""

    def test_repeated_reads_share_one_vector(self):
        device = make_device()
        assert device.available() is device.available()

    def test_allocate_and_release_move_availability(self):
        device = make_device()
        before = device.available()
        allocation = device.allocate(ResourceVector(memory=40, cpu=0.25))
        assert device.available() == ResourceVector(memory=60, cpu=0.75)
        device.release(allocation)
        assert device.available() == before == device.capacity

    def test_go_offline_and_online_move_availability(self):
        device = make_device()
        device.allocate(ResourceVector(memory=40))
        assert device.available()["memory"] == 60
        device.go_offline()
        assert device.available().is_zero()
        device.go_online()
        assert device.available() == device.capacity

    def test_every_mutation_bumps_the_token(self):
        device = make_device()
        seen = [device.state_version]
        allocation = device.allocate(ResourceVector(memory=1))
        seen.append(device.state_version)
        device.release(allocation)
        seen.append(device.state_version)
        device.go_offline()
        seen.append(device.state_version)
        device.go_online()
        seen.append(device.state_version)
        assert seen == sorted(set(seen))


class TestSoftwareInventory:
    def test_component_installation(self):
        device = make_device()
        assert not device.has_component("player")
        device.install_component("player")
        assert device.has_component("player")

    def test_preinstalled_components(self):
        device = Device(
            "d",
            capacity=ResourceVector(),
            installed_components=["a", "b"],
        )
        assert device.has_component("a") and device.has_component("b")

    def test_properties(self):
        device = Device(
            "d", capacity=ResourceVector(), properties={"screen": "320x240"}
        )
        assert device.property("screen") == "320x240"
        assert device.property("missing", "dflt") == "dflt"
