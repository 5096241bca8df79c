"""The "fit into" feasibility test (Definition 3.4).

A service graph G fits into k devices iff there is a k-cut such that

- for every device j, the summed requirement vectors of the components in
  its subset are within the device's availability vector ``RA_j``; and
- for every ordered device pair (i, j), the summed throughput of cut edges
  from subset i to subset j is within the end-to-end available bandwidth
  ``b(i, j)``.

This module defines the environment snapshot the distributors consume
(candidate devices + pairwise bandwidth) and the feasibility check with
per-violation diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.resources.vectors import ResourceVector

BandwidthFn = Callable[[str, str], float]


@dataclass(frozen=True)
class CandidateDevice:
    """One device offered to the distributor.

    ``available`` is the device's current availability vector ``RA`` in
    benchmark-normalised units (Section 3.3's normalisation happens before
    the snapshot is taken).
    """

    device_id: str
    available: ResourceVector

    def __post_init__(self) -> None:
        if not self.device_id:
            raise ValueError("device_id must be non-empty")


class DistributionEnvironment:
    """Snapshot of devices and bandwidth the distributor plans against.

    ``bandwidth`` is either a mapping from unordered device-id pairs to
    Mbps or a callable ``(i, j) -> Mbps``; same-device pairs are treated as
    unconstrained. Pairs absent from a mapping fall back to
    ``default_bandwidth``, which defaults to ``0.0`` — an omitted pair
    means *no link*, so any cut traffic across it is a violation. Pass
    ``default_bandwidth=float("inf")`` to make omissions unconstrained
    instead (the behaviour of passing no bandwidth at all). The default
    does not apply to the callable form, which is consulted for every
    pair. A live network is read by passing its ``available_bandwidth``.
    """

    def __init__(
        self,
        devices: Iterable[CandidateDevice],
        bandwidth: Optional[
            Mapping[Tuple[str, str], float] | BandwidthFn
        ] = None,
        default_bandwidth: float = 0.0,
    ) -> None:
        self.devices: List[CandidateDevice] = list(devices)
        if not self.devices:
            raise ValueError("a distribution environment needs at least one device")
        if default_bandwidth < 0:
            raise ValueError("default_bandwidth must be non-negative")
        ids = [d.device_id for d in self.devices]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate device ids in environment")
        self._by_id: Dict[str, CandidateDevice] = {
            d.device_id: d for d in self.devices
        }
        self.default_bandwidth = default_bandwidth
        if bandwidth is None:
            self._bandwidth_fn: BandwidthFn = lambda i, j: float("inf")
        elif callable(bandwidth):
            self._bandwidth_fn = bandwidth
        else:
            table = {self._norm_pair(i, j): mbps for (i, j), mbps in bandwidth.items()}

            def lookup(i: str, j: str) -> float:
                return table.get(self._norm_pair(i, j), default_bandwidth)

            self._bandwidth_fn = lookup

    @staticmethod
    def _norm_pair(i: str, j: str) -> Tuple[str, str]:
        return (i, j) if i <= j else (j, i)

    def device(self, device_id: str) -> CandidateDevice:
        """Return a candidate device by id (KeyError when absent)."""
        return self._by_id[device_id]

    def device_ids(self) -> List[str]:
        """Return the candidate device ids, in offer order."""
        return [d.device_id for d in self.devices]

    def bandwidth(self, first: str, second: str) -> float:
        """End-to-end available bandwidth b(i, j) between two devices."""
        if first == second:
            return float("inf")
        return self._bandwidth_fn(first, second)

    def total_capacity(self) -> ResourceVector:
        """Union capacity across all candidate devices."""
        return ResourceVector.sum(d.available for d in self.devices)

    def __len__(self) -> int:
        return len(self.devices)

    def __repr__(self) -> str:
        return f"DistributionEnvironment(devices={self.device_ids()!r})"


@dataclass(frozen=True)
class FitViolation:
    """One violated constraint of Definition 3.4.

    ``kind`` is ``"resource"`` (subject = device id, detail = resource
    name), ``"bandwidth"`` (subject = "i->j" device pair), ``"placement"``
    (component on an unknown device or unplaced), or ``"pin"`` (pinned
    component on the wrong device). ``demand`` and ``supply`` quantify the
    violation when meaningful.
    """

    kind: str
    subject: str
    detail: str = ""
    demand: float = 0.0
    supply: float = 0.0


def fit_violations(
    graph: ServiceGraph,
    assignment: Assignment,
    environment: DistributionEnvironment,
) -> List[FitViolation]:
    """Return every violated constraint (empty list = the graph fits)."""
    violations: List[FitViolation] = []
    known = set(environment.device_ids())
    for component in graph:
        device_id = assignment.get(component.component_id)
        if device_id is None:
            violations.append(
                FitViolation("placement", component.component_id, "unplaced")
            )
        elif device_id not in known:
            violations.append(
                FitViolation("placement", component.component_id, f"unknown device {device_id}")
            )
        elif component.pinned_to is not None and device_id != component.pinned_to:
            violations.append(
                FitViolation(
                    "pin",
                    component.component_id,
                    f"pinned to {component.pinned_to}, placed on {device_id}",
                )
            )
    if any(v.kind == "placement" for v in violations):
        return violations

    for device_id, load in assignment.device_loads(graph).items():
        available = environment.device(device_id).available
        for name, demand in load.items():
            supply = available.get(name, 0.0)
            if demand > supply + 1e-9:
                violations.append(
                    FitViolation("resource", device_id, name, demand, supply)
                )

    for (src_dev, dst_dev), demand in assignment.pairwise_throughput(graph).items():
        supply = environment.bandwidth(src_dev, dst_dev)
        if demand > supply + 1e-9:
            violations.append(
                FitViolation(
                    "bandwidth", f"{src_dev}->{dst_dev}", "throughput", demand, supply
                )
            )
    return violations


def fits_into(
    graph: ServiceGraph,
    assignment: Assignment,
    environment: DistributionEnvironment,
) -> bool:
    """Definition 3.4: True when the assignment satisfies every constraint."""
    return not fit_violations(graph, assignment, environment)
