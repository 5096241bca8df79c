"""Lowering a validated :class:`ScenarioSpec` into live harness objects.

:func:`compile_scenario` is the one pass between "document" and "run":
it turns the declarative scenario into exactly the objects every
hand-written harness in :mod:`repro.experiments` assembles manually — a
testbed (smart space + domain server + registry + configurator), a
degradation ladder, a seeded arrival trace, an optional fault schedule,
and per-arrival request factories.

Determinism contract: one scenario-level ``seed`` drives everything.
:func:`derive_seed` hashes ``(seed, label)`` into independent streams —
``arrivals`` for the trace and ``faults`` for the random storm — so
enabling faults can never perturb the arrival trace (and vice versa), and
the same document always replays byte-identically. A document with
``arrivals.derive_seed: false`` seeds its trace and its storm with the
scenario seed itself. A load multiplier scales every declared rate: the
arrivals and the storm alike. A federated document draws each request's
home cluster and roam from its own ``"<seed>:home:<id>"`` and
``"<seed>:roam:<id>"`` streams.

The compiled object is cheap and immutable-ish; :meth:`build_testbed`
constructs a *fresh* environment on every call (two runs never share
mutable state).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.composition.composer import CompositionRequest, ServiceComposer
from repro.composition.corrections import CorrectionPolicy
from repro.discovery.registry import ServiceDescription
from repro.distribution.cost import CostWeights
from repro.distribution.distributor import ServiceDistributor
from repro.distribution.heuristic import HeuristicDistributor
from repro.domain.device import Device
from repro.domain.domain import DomainServer
from repro.domain.space import SmartSpace
from repro.faults.model import (
    FaultKind,
    FaultSchedule,
    FaultSpec,
    random_fault_schedule,
)
from repro.graph.abstract import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    PinConstraint,
)
from repro.graph.service_graph import ServiceComponent
from repro.qos.translation import default_catalog
from repro.qos.vectors import QoSVector
from repro.resources.vectors import ResourceVector
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.degradation import DegradationLadder, QoSLevel
from repro.store.records import SessionRecord
from repro.workloads.arrivals import ArrivalEvent, ArrivalTrace, arrival_trace

from repro.scenarios.spec import (
    EPOCH_KILL,
    LINK_CLASSES,
    ComponentSpec,
    ScenarioSpec,
    WorkloadSpec,
)

#: Fraction of a federation's arrivals homed on ``cluster0`` (the hot
#: spot); the rest spread uniformly over the sibling clusters.
HOT_SPOT_WEIGHT = 0.6


def derive_seed(seed: int, label: str) -> int:
    """Derive an independent substream seed from the scenario seed.

    sha256 over ``"<seed>:<label>"`` folded to 63 bits: stable across
    processes and Python versions (unlike ``hash()``), and collisions
    between the handful of labels a scenario uses are effectively
    impossible. This is what lets one ``seed:`` key drive arrivals and
    faults without coupling their streams.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def qos_vector(mapping: Dict[str, object]) -> QoSVector:
    """Coerce a spec QoS mapping into a :class:`QoSVector`.

    A two-element numeric list is a range, any other list is a set, a
    scalar stays a single value — the YAML-facing reading of
    :func:`repro.qos.parameters.as_qos_value`.
    """
    coerced: Dict[str, object] = {}
    for name, raw in mapping.items():
        if isinstance(raw, list):
            if len(raw) == 2 and all(
                isinstance(x, (int, float)) and not isinstance(x, bool)
                for x in raw
            ):
                coerced[name] = (float(raw[0]), float(raw[1]))
            else:
                coerced[name] = set(raw)
        else:
            coerced[name] = raw
    return QoSVector(coerced)


def _attributes(mapping: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(mapping.items()))


@dataclass
class ScenarioTestbed:
    """One freshly built scenario environment (shape of ``AudioTestbed``)."""

    space: SmartSpace
    server: DomainServer
    configurator: ServiceConfigurator
    devices: Dict[str, Device]


class CompiledScenario:
    """A scenario lowered to factories for testbeds, traces, and requests."""

    def __init__(self, spec: ScenarioSpec) -> None:
        self.spec = spec
        #: Concrete device ids after replica expansion, sorted.
        self.device_ids: List[str] = spec.device_ids()
        #: Deterministic workload rotation: the arrival mix's weights
        #: expanded into a cycle, indexed by ``request_id % len``.
        self.workload_cycle: List[str] = self._expand_mix()
        #: Per-workload client rotation (replica refs expanded).
        self.client_cycles: Dict[str, List[str]] = {
            name: self._expand_clients(workload)
            for name, workload in spec.workloads.items()
        }
        #: Per-workload abstract graph templates; :meth:`abstract_graph`
        #: hands out copies.
        self._graph_templates: Dict[str, AbstractServiceGraph] = {
            name: self._build_abstract_graph(name) for name in spec.workloads
        }

    # -- mix / client expansion --------------------------------------

    def _expand_mix(self) -> List[str]:
        mix = self.spec.arrivals.mix
        if not mix:
            mix = {name: 1 for name in self.spec.workloads}
        cycle: List[str] = []
        for name in sorted(mix):
            cycle.extend([name] * mix[name])
        return cycle

    def _expand_clients(self, workload: WorkloadSpec) -> List[str]:
        clients: List[str] = []
        for ref in workload.clients:
            clients.extend(self.spec.resolve_device_ref(ref, "clients"))
        return clients

    # -- the environment ---------------------------------------------

    def _installed_components(self) -> List[str]:
        """Every component type a device may host when preinstalled.

        Declared component service types plus the correction catalog's
        transcoder names (the composer inserts those dynamically, and the
        paper's no-download setting wants them resident) and the generic
        buffer type.
        """
        names = {comp.service_type for comp in self.spec.components.values()}
        names.update(t.display_name for t in default_catalog())
        names.add("buffer")
        return sorted(names)

    def _component_template(
        self, comp_id: str, comp: ComponentSpec
    ) -> ServiceComponent:
        return ServiceComponent(
            component_id=f"template/{comp_id}",
            service_type=comp.service_type,
            qos_input=qos_vector(comp.qos_input),
            qos_output=qos_vector(comp.qos_output),
            resources=ResourceVector(**comp.resources),
            code_size_kb=comp.code_size_kb,
            state_size_kb=comp.state_size_kb,
            attributes=_attributes(comp.attributes),
        )

    def build_testbed(
        self, clock: Optional[Callable[[], float]] = None
    ) -> ScenarioTestbed:
        """Assemble a fresh environment from the spec.

        Mirrors :func:`repro.apps.audio_on_demand.build_audio_testbed`
        point for point: devices join the domain, the topology is wired
        (a link naming a replicated pool's base name fans out to every
        replica), every declared endpoint lands in the registry, and the
        composer/distributor/configurator stack is attached.
        """
        spec = self.spec
        space = SmartSpace(clock=clock)
        server = space.create_domain(spec.domain)
        installed = (
            self._installed_components() if spec.server.preinstall else ()
        )

        devices: Dict[str, Device] = {}
        for name in sorted(spec.devices):
            decl = spec.devices[name]
            for device_id in spec.expand_device(name):
                devices[device_id] = Device(
                    device_id,
                    decl.device_class,
                    capacity=ResourceVector(**decl.capacity),
                    installed_components=installed,
                )
        for device_id in sorted(devices):
            server.join(devices[device_id])

        net = server.network
        for hub in spec.hubs:
            net.add_device(hub)
        for link in spec.links:
            for first in self._concrete(link.first):
                for second in self._concrete(link.second):
                    net.connect(
                        first,
                        second,
                        LINK_CLASSES[link.link_class],
                        bandwidth_mbps=link.bandwidth_mbps,
                        latency_ms=link.latency_ms,
                    )

        registry = server.domain.registry
        for ep_id in sorted(spec.endpoints):
            endpoint = spec.endpoints[ep_id]
            comp = spec.components[endpoint.component]
            merged_attrs = dict(comp.attributes)
            merged_attrs.update(endpoint.attributes)
            registry.register(
                ServiceDescription(
                    service_type=comp.service_type,
                    provider_id=ep_id,
                    component_template=self._component_template(
                        endpoint.component, comp
                    ),
                    attributes=_attributes(merged_attrs),
                    hosted_on=endpoint.hosted_on,
                    platforms=frozenset(endpoint.platforms),
                )
            )

        composer = ServiceComposer(
            server.discovery, CorrectionPolicy(catalog=default_catalog())
        )
        distributor = ServiceDistributor(HeuristicDistributor(), CostWeights())
        configurator = ServiceConfigurator(server, composer, distributor)
        return ScenarioTestbed(
            space=space,
            server=server,
            configurator=configurator,
            devices=devices,
        )

    # -- ladder / trace / faults --------------------------------------

    def ladder(self) -> Optional[DegradationLadder]:
        if not self.spec.ladder:
            return None
        return DegradationLadder.of(
            *(
                QoSLevel(
                    label=level.label,
                    user_qos=qos_vector(level.user_qos),
                    demand_scale=level.demand_scale,
                )
                for level in self.spec.ladder
            )
        )

    def _seed(self, label: str) -> int:
        """The ``label`` stream's seed (the scenario seed itself when the
        document opts out of derived streams)."""
        if self.spec.arrivals.derive_seed:
            return derive_seed(self.spec.seed, label)
        return self.spec.seed

    def arrival_trace(self, multiplier: float = 1.0) -> ArrivalTrace:
        """The scenario's offered load, scaled by a rate multiplier.

        A federation's offered load grows with its member count, so an
        isolated and a federated run of one document see the same trace.
        A zero rate is an empty trace.
        """
        arrivals = self.spec.arrivals
        rate_per_s = arrivals.rate_per_s * multiplier * self.spec.clusters
        if rate_per_s == 0:
            return ArrivalTrace(events=(), horizon_s=arrivals.horizon_s)
        return arrival_trace(
            seed=self._seed("arrivals"),
            rate_per_s=rate_per_s,
            horizon_s=arrivals.horizon_s,
            arrival_process=arrivals.arrival_process,
            duration_process=arrivals.duration_process,
            mean_duration_s=arrivals.mean_duration_s,
            duration_bounds_s=(
                arrivals.duration_bounds_s[0],
                arrivals.duration_bounds_s[1],
            ),
            pareto_alpha=arrivals.pareto_alpha,
        )

    def fault_schedule(
        self, multiplier: float = 1.0
    ) -> Optional[FaultSchedule]:
        """The device-fault plan: seeded storm merged with scripted events.

        ``multiplier`` scales the storm's rates; scripted events stay put.
        Epoch kills are not device faults (see :meth:`epoch_kills`); a
        plan of nothing else, like no ``faults:`` section, is None.
        """
        faults = self.spec.faults
        if faults is None:
            return None
        scripted = [item for item in faults.scripted if item.kind != EPOCH_KILL]
        if faults.random is None and not scripted and self.epoch_kills():
            return None
        specs: List[FaultSpec] = []
        if faults.random is not None:
            rnd = faults.random
            storm = random_fault_schedule(
                seed=self._seed("faults"),
                horizon_s=self.spec.arrivals.horizon_s
                * rnd.injection_window,
                crash_targets=self._fault_targets(rnd.crash_targets),
                depart_targets=self._fault_targets(rnd.depart_targets),
                link_pairs=[
                    (pair[0], pair[1]) for pair in rnd.link_pairs
                ],
                pressure_targets=self._fault_targets(rnd.pressure_targets),
                crash_rate_per_min=rnd.crash_rate_per_min * multiplier,
                depart_rate_per_min=rnd.depart_rate_per_min * multiplier,
                link_rate_per_min=rnd.link_rate_per_min * multiplier,
                pressure_rate_per_min=rnd.pressure_rate_per_min * multiplier,
            )
            specs.extend(storm)
        for item in scripted:
            specs.append(
                FaultSpec(
                    kind=FaultKind(item.kind),
                    at_s=item.at_s,
                    target=item.target,
                    peer=item.peer,
                    magnitude=item.magnitude,
                    duration_s=item.duration_s,
                )
            )
        return FaultSchedule.of(*specs)

    def epoch_kills(self) -> List[float]:
        """When every domain's service dies: the ``epoch_kill`` times."""
        faults = self.spec.faults
        return sorted(
            item.at_s
            for item in (faults.scripted if faults else ())
            if item.kind == EPOCH_KILL
        )

    def _fault_targets(self, refs: List[str]) -> List[str]:
        return [target for ref in refs for target in self._concrete(ref)]

    def _concrete(self, ref: str) -> List[str]:
        """A device's concrete ids (replicas expanded); a hub is itself."""
        if ref in self.spec.devices:
            return self.spec.expand_device(ref)
        return [ref]

    # -- per-request factories ----------------------------------------

    def abstract_graph(self, workload_name: str) -> AbstractServiceGraph:
        """A fresh abstract service graph for one workload.

        Each call returns a fresh copy of a template built once per
        compiled workload. The copy stays fresh, never shared, because
        abstract graphs are mutable (``add_spec``) and one caller's growth
        must not change another caller's request. Copies of one template
        share its :attr:`~repro.graph.abstract.AbstractServiceGraph.structure_key`
        object, so the caches that key on it hit by identity.
        """
        return self._graph_templates[workload_name].copy()

    def _build_abstract_graph(self, workload_name: str) -> AbstractServiceGraph:
        workload = self.spec.workloads[workload_name]
        graph = AbstractServiceGraph(
            name=f"{self.spec.name}/{workload_name}"
        )
        for node_id in workload.nodes:
            node = workload.nodes[node_id]
            pin: Optional[PinConstraint] = None
            if node.pin == "client":
                pin = PinConstraint(role="client")
            elif node.pin is not None:
                pin = PinConstraint(device_id=node.pin)
            graph.add_spec(
                AbstractComponentSpec(
                    spec_id=node_id,
                    service_type=node.service_type,
                    attributes=_attributes(node.attributes),
                    required_output=qos_vector(node.required_output),
                    optional=node.optional,
                    pin=pin,
                )
            )
        for source, target, mbps in workload.relations:
            graph.connect(source, target, mbps)
        return graph

    def composition_request(
        self,
        testbed: ScenarioTestbed,
        workload_name: str,
        client_device: str,
    ) -> CompositionRequest:
        """A configuration request for ``workload_name`` at one client."""
        workload = self.spec.workloads[workload_name]
        device = testbed.devices[client_device]
        return CompositionRequest(
            abstract_graph=self.abstract_graph(workload_name),
            user_qos=qos_vector(workload.user_qos),
            client_device_id=client_device,
            client_device_class=device.device_class,
            preferred_devices=tuple(sorted(testbed.devices)),
        )

    def workload_for(self, event: ArrivalEvent) -> str:
        return self.workload_cycle[event.request_id % len(self.workload_cycle)]

    def client_for(self, workload_name: str, event: ArrivalEvent) -> str:
        cycle = self.client_cycles[workload_name]
        return cycle[event.request_id % len(cycle)]

    def request_factory(self, testbed: ScenarioTestbed):
        """``ArrivalEvent -> ServerRequest``, for the serving drivers.

        Workload, client and (with ``arrivals.users``) user rotate
        deterministically on the event's request id, so the mapping is a
        pure function of the trace.
        """
        from repro.server.service import ServerRequest

        users = self.spec.arrivals.users

        def to_request(event: ArrivalEvent) -> "ServerRequest":
            workload_name = self.workload_for(event)
            client = self.client_for(workload_name, event)
            workload = self.spec.workloads[workload_name]
            user = event.request_id % users if users else event.request_id
            return ServerRequest(
                request_id=f"req-{event.request_id}",
                composition=self.composition_request(
                    testbed, workload_name, client
                ),
                priority=max(event.priority, workload.priority),
                deadline_s=self.spec.arrivals.deadline_s,
                duration_s=event.duration_s,
                user_id=f"user-{user}",
                workload=workload_name,
                utility_profile=workload.utility_profile,
            )

        return to_request

    # -- federation ----------------------------------------------------

    def member_names(self) -> List[str]:
        """The federation's member clusters, ``cluster0`` first."""
        return [f"cluster{index}" for index in range(self.spec.clusters)]

    def home_for(self, event: ArrivalEvent) -> str:
        """The member cluster an arrival homes on (a federation's hot spot)."""
        clusters = self.spec.clusters
        rng = random.Random(f"{self.spec.seed}:home:{event.request_id}")
        if rng.random() < HOT_SPOT_WEIGHT:
            return "cluster0"
        return f"cluster{rng.randrange(1, clusters)}"

    def roams(
        self, arrivals: Iterable[ArrivalEvent]
    ) -> List[Tuple[float, str, str, str]]:
        """Mid-session roams as ``(at_s, request_id, destination, device)``.

        A ``federation.roam_rate`` share of the requests roams to a
        sibling cluster halfway through its session, onto the next client
        of its workload's rotation. A roam whose session is gone by then
        is dropped at fire time, like a stale mobility prediction.
        """
        federation = self.spec.federation
        if federation is None or federation.clusters == 1:
            return []
        roams: List[Tuple[float, str, str, str]] = []
        for event in arrivals:
            rng = random.Random(f"{self.spec.seed}:roam:{event.request_id}")
            if rng.random() >= federation.roam_rate:
                continue
            home = self.home_for(event)
            siblings = [name for name in self.member_names() if name != home]
            destination = siblings[rng.randrange(len(siblings))]
            cycle = self.client_cycles[self.workload_for(event)]
            roams.append(
                (
                    event.arrival_s + 0.5 * event.duration_s,
                    f"req-{event.request_id}",
                    destination,
                    cycle[(event.request_id + 1) % len(cycle)],
                )
            )
        return roams

    def recovery_request_factory(
        self, testbed: ScenarioTestbed
    ) -> Callable[[SessionRecord], Optional[CompositionRequest]]:
        """``SessionRecord -> CompositionRequest`` for crash-restart.

        Rebuilds the composition request a persisted session was admitted
        with from its stored workload name and client device. Records
        whose workload or client no longer exists in the scenario map to
        ``None`` (the recovery pass tears them down as unrecoverable).
        """

        def from_record(record: SessionRecord) -> Optional[CompositionRequest]:
            workload_name = record.workload
            if workload_name is None or workload_name not in self.spec.workloads:
                return None
            client = record.client_device
            if client is None or client not in testbed.devices:
                return None
            return self.composition_request(testbed, workload_name, client)

        return from_record


def compile_scenario(spec: ScenarioSpec) -> CompiledScenario:
    """Lower a validated spec into a :class:`CompiledScenario`."""
    return CompiledScenario(spec)


__all__ = [
    "CompiledScenario",
    "HOT_SPOT_WEIGHT",
    "ScenarioTestbed",
    "compile_scenario",
    "derive_seed",
    "qos_vector",
]
