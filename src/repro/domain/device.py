"""Devices with resource accounting.

A device advertises a resource availability vector ``RA`` (in
benchmark-normalised units — see
:mod:`repro.resources.normalization`), tracks allocations made by deployed
components, and carries the properties the discovery matcher inspects
(device class, screen size, installed components).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.resources.normalization import BenchmarkNormalizer
from repro.resources.vectors import ZERO, ResourceVector


class DeviceClass:
    """Well-known device class names used across the experiments."""

    PC = "pc"
    DESKTOP = "pc"
    WORKSTATION = "workstation"
    LAPTOP = "laptop"
    PDA = "pda"
    SERVER = "server"


@dataclass(frozen=True)
class ResourceAllocation:
    """A granted share of one device's resources (release token)."""

    allocation_id: int
    device_id: str
    resources: ResourceVector
    owner: str = ""


class DeviceOfflineError(RuntimeError):
    """Raised when allocating on a device that has left or crashed."""


class InsufficientResourcesError(RuntimeError):
    """Raised when an allocation does not fit the device's availability."""


class Device:
    """One stationary, embedded or mobile device of the smart space.

    ``capacity`` is the normalised availability vector ``RA``; pass
    ``raw_capacity`` together with a :class:`BenchmarkNormalizer` to let the
    device normalise itself (the Section 3.3 workflow). Allocations are
    tracked with release tokens, mirroring how the domain server admits and
    retires application partitions.
    """

    def __init__(
        self,
        device_id: str,
        device_class: str = DeviceClass.PC,
        capacity: Optional[ResourceVector] = None,
        raw_capacity: Optional[ResourceVector] = None,
        normalizer: Optional[BenchmarkNormalizer] = None,
        properties: Optional[Mapping[str, str]] = None,
        installed_components: Iterable[str] = (),
    ) -> None:
        if not device_id:
            raise ValueError("device_id must be non-empty")
        if (capacity is None) == (raw_capacity is None):
            raise ValueError("give exactly one of capacity or raw_capacity")
        if raw_capacity is not None:
            if normalizer is None:
                raise ValueError("raw_capacity requires a normalizer")
            capacity = normalizer.normalize_availability(raw_capacity, device_class)
        assert capacity is not None
        self.device_id = device_id
        self.device_class = device_class
        self.capacity = capacity
        self.properties: Dict[str, str] = dict(properties or {})
        self.installed_components: Set[str] = set(installed_components)
        self._allocated = ZERO
        self._allocations: Dict[int, ResourceAllocation] = {}
        self._ids = itertools.count(1)
        self._online = True
        self._state_version = 0
        # available() memo: (state version it was computed at, vector).
        self._available_memo: Optional[Tuple[int, ResourceVector]] = None

    # -- lifecycle ------------------------------------------------------------

    @property
    def state_version(self) -> int:
        """Change counter: increases whenever availability may have changed.

        Lets snapshot consumers (the configurator's environment cache) test
        staleness in O(1) instead of re-reading the allocation table.
        """
        return self._state_version

    @property
    def online(self) -> bool:
        return self._online

    def go_offline(self) -> None:
        """Mark the device as departed/crashed; allocations become void."""
        self._online = False
        self._allocations.clear()
        self._allocated = ZERO
        self._state_version += 1

    def go_online(self) -> None:
        """Re-attach the device with a clean allocation table."""
        self._online = True
        self._state_version += 1

    # -- resource accounting -----------------------------------------------------

    @property
    def allocated(self) -> ResourceVector:
        """Currently allocated resources."""
        return self._allocated

    def available(self) -> ResourceVector:
        """Remaining availability: capacity minus allocations.

        Memoized on :attr:`state_version`, which every allocation change
        bumps. The token is read *before* computing, so a concurrent bump
        makes the next call recompute rather than reuse a stale vector.
        """
        version = self._state_version
        memo = self._available_memo
        if memo is not None and memo[0] == version:
            return memo[1]
        if not self._online:
            available = ZERO
        else:
            available = self.capacity - self._allocated
        self._available_memo = (version, available)
        return available

    def can_host(self, resources: ResourceVector) -> bool:
        """True when the requirement fits the current availability."""
        return self._online and resources.fits_within(self.available())

    def allocate(self, resources: ResourceVector, owner: str = "") -> ResourceAllocation:
        """Grant a resource share; raises when offline or over capacity."""
        if not self._online:
            raise DeviceOfflineError(f"device {self.device_id!r} is offline")
        if not resources.fits_within(self.available()):
            raise InsufficientResourcesError(
                f"device {self.device_id!r} cannot host {resources!r}; "
                f"available {self.available()!r}"
            )
        allocation = ResourceAllocation(
            next(self._ids), self.device_id, resources, owner
        )
        self._allocations[allocation.allocation_id] = allocation
        self._allocated = self._allocated + resources
        self._state_version += 1
        return allocation

    def release(self, allocation: ResourceAllocation) -> None:
        """Return a previously granted share (idempotent per token)."""
        stored = self._allocations.pop(allocation.allocation_id, None)
        if stored is None:
            return
        # Recompute from the live table rather than decrementing the
        # running sum: repeated add/subtract of scaled vectors accumulates
        # float residue, and a fully drained device must read exactly zero.
        # One pass in allocation order: the same floats as folding
        # ZERO + a1 + a2 + ... (see ResourceVector.sum).
        self._allocated = ResourceVector.sum(
            [live.resources for live in self._allocations.values()]
        )
        self._state_version += 1

    def active_allocations(self) -> List[ResourceAllocation]:
        """Return all live allocations."""
        return list(self._allocations.values())

    def utilization(self) -> Dict[str, float]:
        """Per-resource allocated fraction in [0, 1] (0 for spare names)."""
        result: Dict[str, float] = {}
        for name in self.capacity.names():
            cap = self.capacity[name]
            result[name] = (self._allocated.get(name, 0.0) / cap) if cap > 0 else 0.0
        return result

    # -- software inventory ---------------------------------------------------------

    def has_component(self, service_type: str) -> bool:
        """True when the component's code is already installed locally.

        Determines whether deployment needs dynamic downloading (Figure 4's
        dominant overhead when components are not pre-installed).
        """
        return service_type in self.installed_components

    def install_component(self, service_type: str) -> None:
        """Record the component's code as locally present after a download."""
        self.installed_components.add(service_type)

    def property(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Look up a device property (screen size, input capabilities, ...)."""
        return self.properties.get(name, default)

    def __repr__(self) -> str:
        state = "online" if self._online else "offline"
        return (
            f"Device({self.device_id!r}, class={self.device_class!r}, "
            f"capacity={self.capacity!r}, {state})"
        )
