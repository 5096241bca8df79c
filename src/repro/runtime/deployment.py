"""Deployment of a distributed service graph, with the overhead cost model.

Figure 4 breaks the dynamic service configuration overhead into four
components: *service composition*, *service distribution*, *dynamic
downloading*, and *initialization or state handoff*. The wall-clock values
in the paper come from CORBA calls and real networks; this module replaces
them with an explicit, documented analytic model so runs are deterministic:

- composition time  = base + per-work-unit cost × (discovery queries +
  satisfy-relation checks), the O(V+E) work of the composer;
- distribution time = base + per-evaluation cost × strategy evaluations;
- downloading time  = Σ per-component code transfer from the repository
  (zero when pre-installed) — the dominant term when downloads happen;
- initialization    = per-component start-up cost;
- state handoff     = handoff protocol round-trips + state transfer +
  first-frame buffering (computed by
  :class:`repro.mobility.StateHandoffProtocol`), asymmetric between wired
  and wireless clients exactly as in the paper.

The default constants are calibrated so magnitudes land in Figure 4's
range (tens of ms for composition/distribution, hundreds for handoff,
around 1.5–2 s when everything is downloaded); EXPERIMENTS.md compares
shapes, not absolute numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.composition.composer import CompositionResult
from repro.distribution.distributor import DistributionResult
from repro.domain.device import Device
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.network.topology import NetworkTopology
from repro.runtime.repository import ComponentRepository, DownloadRecord


class DeploymentError(RuntimeError):
    """Raised when a planned assignment cannot be deployed after all."""


@dataclass(frozen=True)
class ConfigurationTiming:
    """Figure 4's per-event overhead breakdown, in milliseconds."""

    composition_ms: float = 0.0
    distribution_ms: float = 0.0
    download_ms: float = 0.0
    initialization_ms: float = 0.0
    handoff_ms: float = 0.0

    @property
    def init_or_handoff_ms(self) -> float:
        """The figure's combined fourth bar segment."""
        return self.initialization_ms + self.handoff_ms

    @property
    def total_ms(self) -> float:
        return (
            self.composition_ms
            + self.distribution_ms
            + self.download_ms
            + self.initialization_ms
            + self.handoff_ms
        )

    def as_dict(self) -> Dict[str, float]:
        """Breakdown as plain floats, for the benchmark tables."""
        return {
            "composition_ms": self.composition_ms,
            "distribution_ms": self.distribution_ms,
            "download_ms": self.download_ms,
            "init_or_handoff_ms": self.init_or_handoff_ms,
            "total_ms": self.total_ms,
        }


@dataclass(frozen=True)
class DeploymentCostModel:
    """Constants of the analytic overhead model (seconds unless noted)."""

    composition_base_s: float = 0.010
    composition_per_work_unit_s: float = 0.004
    distribution_base_s: float = 0.008
    distribution_per_evaluation_s: float = 0.002
    initialization_per_component_s: float = 0.030

    def composition_time_s(self, result: CompositionResult) -> float:
        """Composer overhead from its work-unit count."""
        return (
            self.composition_base_s
            + self.composition_per_work_unit_s * result.work_units()
        )

    def distribution_time_s(self, result: DistributionResult) -> float:
        """Distributor overhead from its evaluation count."""
        return (
            self.distribution_base_s
            + self.distribution_per_evaluation_s * result.evaluations
        )

    def initialization_time_s(self, component_count: int) -> float:
        """Start-up cost of freshly deployed components."""
        return self.initialization_per_component_s * component_count


@dataclass
class DeploymentReport:
    """A live deployment: where it runs, what it downloaded, its timing.

    The capacity it runs on is held by ``ledger_txn``, the reservation
    ledger's committed transaction, so retiring the application is
    ``ledger.release(ledger_txn)``.
    """

    graph: ServiceGraph
    assignment: Assignment
    downloads: List[DownloadRecord] = field(default_factory=list)
    download_s: float = 0.0
    initialization_s: float = 0.0
    ledger_txn: Optional[object] = None

    @property
    def downloaded_count(self) -> int:
        return sum(1 for d in self.downloads if d.downloaded)


class Deployer:
    """Downloads and starts the components of a booked assignment.

    Capacity is not the deployer's business: the configurator books it
    through its reservation ledger first and releases the transaction
    when :meth:`deploy` raises :class:`DeploymentError`.
    """

    def __init__(
        self,
        repository: Optional[ComponentRepository] = None,
        cost_model: Optional[DeploymentCostModel] = None,
    ) -> None:
        self.repository = repository
        self.cost_model = cost_model or DeploymentCostModel()

    def deploy(
        self,
        graph: ServiceGraph,
        assignment: Assignment,
        devices: Mapping[str, Device],
        topology: NetworkTopology,
        skip_downloads: bool = False,
    ) -> DeploymentReport:
        """Download and initialise every component on its assigned device."""
        report = DeploymentReport(graph=graph, assignment=assignment)
        for component in graph:
            device_id = assignment.device_of(component.component_id)
            device = devices.get(device_id)
            if device is None:
                raise DeploymentError(f"unknown device {device_id!r}")
            if self.repository is not None and not skip_downloads:
                record = self.repository.ensure_installed(
                    device,
                    component.service_type,
                    topology,
                    fallback_size_kb=component.code_size_kb,
                )
                report.downloads.append(record)
                report.download_s += record.duration_s
        report.initialization_s = self.cost_model.initialization_time_s(len(graph))
        return report
