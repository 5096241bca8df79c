"""Dynamic QoS-aware multimedia service configuration for ubiquitous computing.

A from-scratch reproduction of Gu & Nahrstedt, *Dynamic QoS-Aware
Multimedia Service Configuration in Ubiquitous Computing Environments*
(ICDCS 2002), including every substrate the paper's Gaia-based prototype
relied on.

Public API tour (see README.md for the full quickstart):

- :mod:`repro.qos` — QoS vectors and the "satisfy" relation (Eq. 1);
- :mod:`repro.resources` — resource vectors and benchmark normalisation;
- :mod:`repro.graph` — service graphs, abstract graphs, k-cuts;
- :mod:`repro.composition` — the service composition tier (the Ordered
  Coordination algorithm with automatic correction);
- :mod:`repro.distribution` — the service distribution tier (the greedy
  heuristic, exact optimal, random and fixed baselines);
- :mod:`repro.discovery`, :mod:`repro.events`, :mod:`repro.domain`,
  :mod:`repro.network`, :mod:`repro.mobility`, :mod:`repro.profiling`,
  :mod:`repro.sim` — the smart-space substrates;
- :mod:`repro.runtime` — the integrated two-tier configurator with
  sessions, deployment and handoff;
- :mod:`repro.runtime.clock` — the Scheduler protocol with deterministic
  (sim) and wall-clock implementations shared by every timed subsystem;
- :mod:`repro.server` — the domain configuration service (reservation
  ledger, bounded queue, admission control, overload shedding) and the
  sharded multi-domain serving cluster;
- :mod:`repro.federation` — the geo-federated multi-cluster tier:
  digest-routed admission across clusters and two-phase cross-cluster
  session migration;
- :mod:`repro.faults` — fault injection, heartbeat failure detection and
  self-healing session recovery;
- :mod:`repro.observability` — structured span tracing, the unified
  metrics registry, and the trace-report renderer;
- :mod:`repro.store` — the pluggable durable record store (in-memory
  default, sqlite for crash-restart recovery with session re-adoption);
- :mod:`repro.scenarios` — the declarative scenario catalog: one
  YAML/JSON document compiled into testbeds, traces, fault plans and
  run end to end behind ``python -m repro scenario``;
- :mod:`repro.apps`, :mod:`repro.workloads`, :mod:`repro.experiments` —
  the prototype applications and the drivers regenerating every table and
  figure of the paper's evaluation.

The top level re-exports only the names README.md and ``examples/``
import from it; everything else is imported from its subpackage.
"""

from repro.qos import QoSVector
from repro.resources import ResourceVector
from repro.graph import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    PinConstraint,
    ServiceComponent,
)
from repro.composition import CompositionRequest, CorrectionPolicy, ServiceComposer
from repro.distribution import (
    CandidateDevice,
    CostWeights,
    DistributionEnvironment,
    FixedDistributor,
    HeuristicDistributor,
    OptimalDistributor,
    RandomDistributor,
    ServiceDistributor,
)
from repro.discovery import DiscoveryService, ServiceDescription, ServiceRegistry
from repro.domain import Device, SmartSpace
from repro.observability import TraceReport, Tracer, activated
from repro.runtime import ServiceConfigurator, SimScheduler
from repro.sim import Simulator
from repro.scenarios import compile_scenario, load_scenario, run_scenario

__version__ = "1.0.0"

__all__ = [
    "QoSVector",
    "ResourceVector",
    "AbstractComponentSpec",
    "AbstractServiceGraph",
    "PinConstraint",
    "ServiceComponent",
    "CompositionRequest",
    "CorrectionPolicy",
    "ServiceComposer",
    "CandidateDevice",
    "CostWeights",
    "DistributionEnvironment",
    "FixedDistributor",
    "HeuristicDistributor",
    "OptimalDistributor",
    "RandomDistributor",
    "ServiceDistributor",
    "DiscoveryService",
    "ServiceDescription",
    "ServiceRegistry",
    "Device",
    "SmartSpace",
    "TraceReport",
    "Tracer",
    "activated",
    "ServiceConfigurator",
    "SimScheduler",
    "Simulator",
    "compile_scenario",
    "load_scenario",
    "run_scenario",
    "__version__",
]
