"""Running compiled scenarios end to end.

:func:`run_scenario` is the one execution path behind ``python -m repro
scenario``. It lowers the spec and plans it into a serving tree. Each
node builds its own runtime, adds its own setup and teardown hooks and
reads its own part of the :class:`ScenarioRunResult`:

- a **domain** is one testbed plus its
  :class:`~repro.server.batching.BatchingDomainService`, and a full
  instance of the document: it holds the document's ``sessions`` from
  t=0 to the end and runs its fault storm through its own
  :class:`~repro.faults.stack.RecoveryStack` on its own copies of the
  devices, so a fault named on a device hits every domain's copy;
- a **cluster** groups ``cluster.shards`` domains behind the router of a
  :class:`~repro.server.cluster.DomainCluster` and adds its controller;
- a **federation** groups ``federation.clusters`` clusters under a
  :class:`~repro.federation.tier.FederationTier` and adds its
  :class:`~repro.federation.migration.MigrationSchedule` of roams.

The root is a lone domain for one shard of one cluster (controlled by
its recovery stack's detector-driven controller), a cluster for several
shards, and a federation for several clusters. It goes through one
deterministic :func:`~repro.server.drivers.sim_replay` with the tree's
hooks, or a real :func:`~repro.server.drivers.thread_burst`; both end in
the ledger audit, and ``to_json`` is byte-identical across sim runs of
one document + seed. :func:`run_sweep` runs one document at every
cluster count × shard count × load multiplier.

Crash-restart is a fault: an ``epoch_kill`` in ``faults.scripted`` hits
every domain of the tree inside the same replay. At the kill a domain
drops its service without teardown, exactly like a process crash, and
boots a fresh testbed and service on the same record store (a run with
a kill gets an in-memory store when none is passed). The successor
takes the dead service's metrics, driver lane and shard slot, reopens
the held sessions, re-adopts the dead epoch's persisted sessions
through normal admission (each stops at its persisted end), reconciles
its dangling ledger holds and recovers from the device faults still to
come. Kill readings count epochs from the run's first boot, so a reused
store writes the same JSON as a fresh one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.control.controller import ControlPolicy
from repro.faults.stack import RecoveryStack
from repro.federation.migration import MigrationSchedule
from repro.federation.tier import (
    FederatedRequest,
    FederationMember,
    FederationTier,
)
from repro.observability.metrics import MetricsRegistry
from repro.runtime.clock import SimScheduler
from repro.runtime.session import ApplicationSession
from repro.server.batching import BatchingDomainService
from repro.server.cluster import DomainCluster, make_router
from repro.server.drivers import (
    SimulatedServerDriver,
    sim_replay,
    thread_burst,
)
from repro.server.service import UNBATCHED, BatchPolicy
from repro.sim.kernel import Simulator
from repro.faults.model import FaultSchedule
from repro.store import InMemoryRecordStore, RecordStore, readopt_sessions
from repro.scenarios.compile import (
    CompiledScenario,
    ScenarioTestbed,
    compile_scenario,
)
from repro.scenarios.spec import (
    FederationSpec,
    ScenarioSpec,
    ScenarioValidationError,
)
from repro.workloads.arrivals import ArrivalEvent

#: Result fields that ``as_dict`` emits only for some runs.
_OPTIONAL = ("recovery", "domains", "clusters", "escalations", "migrations_committed")
_ROUNDED = ("throughput_per_min", "shed_rate", "p50_total_ms", "p99_total_ms")


@dataclass
class ScenarioRunResult:
    """One scenario run's aggregate outcome (deterministic under sim)."""

    scenario: str
    seed: int
    driver: str
    multiplier: float
    horizon_s: float
    shards: int
    router: str
    controlled: bool
    batched: bool
    faulted: bool
    submitted: int = 0
    admitted: int = 0
    degraded: int = 0
    shed: int = 0
    failed: int = 0
    conflict_retries: int = 0
    throughput_per_min: float = 0.0
    shed_rate: float = 0.0
    p50_total_ms: float = 0.0
    p99_total_ms: float = 0.0
    #: Summed over every domain of the tree.
    faults_injected: int = 0
    recoveries: int = 0
    recovery_failures: int = 0
    control_forecasts: int = 0
    control_actuations: int = 0
    control_reverts: int = 0
    control_rebalanced: int = 0
    #: A faulted lone domain's recovery registry snapshot plus its
    #: recovery reports (``as_dict`` carries it only then).
    recovery: Optional[Dict[str, object]] = None
    #: Per domain (``shard<i>``, ``cluster<j>.shard<i>``): ``sessions``,
    #: each held user's running sessions at teardown, a faulted domain's
    #: ``recovery`` block and a killed domain's ``epoch_kills`` (one
    #: re-adoption report each); in ``as_dict`` for several domains or a
    #: kill.
    domains: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Member clusters; the three federation keys appear in ``as_dict``
    #: only when the run was federated.
    clusters: int = 1
    escalations: int = 0
    migrations_committed: int = 0
    metrics_json: str = "{}"
    #: NDJSON span export when traced ("" otherwise); excluded from
    #: ``as_dict`` so the JSON artifact is trace-independent.
    trace_ndjson: str = ""

    def as_dict(self) -> Dict[str, object]:
        payload = {
            item.name: getattr(self, item.name)
            for item in fields(self)
            if item.name not in _OPTIONAL
        }
        for name in _ROUNDED:
            payload[name] = round(payload[name], 6)
        del payload["trace_ndjson"]
        payload["metrics"] = json.loads(payload.pop("metrics_json"))
        if self.clusters > 1:
            payload.update(
                clusters=self.clusters,
                escalations=self.escalations,
                migrations_committed=self.migrations_committed,
            )
        if self.recovery is not None:
            payload["recovery"] = self.recovery
        if self.epoch_kills() or (len(self.domains) > 1 and any(self.domains.values())):
            payload["domains"] = self.domains
        return payload

    def epoch_kills(self) -> List[Tuple[str, Dict[str, object]]]:
        """Every domain's epoch kills as ``(domain, report)``, in order."""
        return [
            (name, kill)
            for name, reading in self.domains.items()
            for kill in reading.get("epoch_kills", ())
        ]

    @property
    def balanced(self) -> bool:
        """True when every killed epoch's stored ledger closes to zero."""
        return all(kill["balanced"] for _, kill in self.epoch_kills())

    def to_json(self) -> str:
        """Deterministic JSON artifact (sorted keys, no whitespace)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    def mean_mttr_ms(self) -> float:
        """Mean suspicion → recovered time over every domain's repairs
        (0.0 without a repair)."""
        mttr = [
            reading["recovery"]["histograms"]["recovery.mttr_ms"]
            for reading in self.domains.values()
            if "recovery" in reading
        ]
        count = sum(summary["count"] for summary in mttr)
        total = sum(summary.get("mean", 0.0) * summary["count"] for summary in mttr)
        return total / count if count else 0.0

    def format_table(self) -> str:
        lines = [
            f"Scenario {self.scenario!r} "
            f"(seed {self.seed}, driver {self.driver}, "
            f"x{self.multiplier:g} load, horizon {self.horizon_s:g}s)",
            "",
            f"{'submitted':>10}{'admitted':>10}{'degraded':>10}"
            f"{'shed':>7}{'failed':>8}{'thr/min':>9}{'shed%':>8}",
            f"{self.submitted:>10d}{self.admitted:>10d}{self.degraded:>10d}"
            f"{self.shed:>7d}{self.failed:>8d}"
            f"{self.throughput_per_min:>9.2f}"
            f"{100.0 * self.shed_rate:>7.1f}%",
        ]
        if self.clusters > 1:
            lines.append(
                f"{self.clusters} clusters, "
                f"escalations {self.escalations}, "
                f"migrations committed {self.migrations_committed}"
            )
        if self.faulted:
            lines.append(
                f"faults injected {self.faults_injected}, "
                f"recoveries {self.recoveries}, "
                f"recovery failures {self.recovery_failures}"
            )
        for name, kill in self.epoch_kills():
            lines.append(
                f"{name}: epoch {kill['dead_epoch']} killed at "
                f"t={kill['at_s']:g}s ({kill['admitted']} admitted, "
                f"{kill['persisted_active']} active), "
                f"epoch {kill['epoch']} re-adopted {kill['readopted']}, "
                f"tore down {kill['torn_down']}, "
                f"reconciled {kill['reconciled_txns']} txn(s), "
                f"ledger {'balanced' if kill['balanced'] else 'UNBALANCED'}"
            )
        return "\n".join(lines)


def _as_compiled(
    scenario: Union[ScenarioSpec, CompiledScenario]
) -> CompiledScenario:
    if isinstance(scenario, CompiledScenario):
        return scenario
    return compile_scenario(scenario)


def run_scenario(
    scenario: Union[ScenarioSpec, CompiledScenario],
    driver: str = "sim",
    multiplier: float = 1.0,
    trace: bool = False,
    controlled: Optional[bool] = None,
    batched: bool = False,
    store: Optional[RecordStore] = None,
    thread_timeout_s: float = 60.0,
) -> ScenarioRunResult:
    """Run one scenario's serving tree end to end and audit every ledger.

    ``controlled=None`` follows the spec's ``control.enabled`` knob; an
    explicit boolean overrides it (the thread driver never controls: the
    control plane needs a logical clock). Faults and sessions need the sim
    driver. ``store`` plugs a durable record store into every domain;
    it records the run and never changes its result.

    The thread driver is a time-compressed open loop: arrival times are
    ignored and every request is submitted at once, so dispositions are
    timing-dependent and only the invariants are checked. It raises
    ``TimeoutError`` when the pool does not drain in ``thread_timeout_s``.
    """
    compiled = _as_compiled(scenario)
    spec = compiled.spec
    if driver not in ("sim", "thread"):
        raise ValueError(f"unknown driver {driver!r} (choose sim or thread)")
    if multiplier <= 0:
        raise ValueError("load multiplier must be positive")
    if (spec.faults is not None or spec.sessions) and driver != "sim":
        raise ValueError("fault schedules and sessions require the sim driver")
    if controlled is None:
        controlled = spec.control.enabled
    controlled = controlled and driver == "sim"

    simulator = Simulator() if driver == "sim" else None
    arrivals = compiled.arrival_trace(multiplier=multiplier)
    control = ControlPolicy(
        tick_interval_s=spec.control.tick_interval_s,
        window_s=spec.control.window_s,
    )
    if store is None and compiled.epoch_kills():
        # A successor reads its dead predecessor's records.
        store = InMemoryRecordStore()
    build = _Build(
        compiled,
        simulator,
        batched=batched,
        multiplier=multiplier,
        arrivals=arrivals,
        control=control if controlled else None,
        store=store,
        first_epoch=store.current_epoch() + 1 if store is not None else 1,
    )
    root = _plan(build)
    trace_ndjson = ""
    if simulator is None:
        thread_burst(
            root.target,
            map(root.to_request, arrivals),
            max(2, spec.server.workers),
            thread_timeout_s,
            "scenario run",
        )
    else:
        attributes = dict(scenario=spec.name, seed=spec.seed, **root.attributes)
        trace_ndjson = sim_replay(
            build.driver(root.target),
            arrivals,
            root.to_request,
            "scenario run",
            root_span=("run.scenario", attributes) if trace else None,
            setup=root.setup,
            teardown=root.teardown,
        )
    return _read(root, build, arrivals.horizon_s, trace_ndjson)


# ---------------------------------------------------------------------------
# the serving tree
# ---------------------------------------------------------------------------


@dataclass
class _Build:
    """What every node of one run's serving tree is built from."""

    compiled: CompiledScenario
    simulator: Optional[Simulator] = None
    batched: bool = False
    multiplier: float = 1.0
    arrivals: Sequence[ArrivalEvent] = ()
    #: Taken by the lone domain or by each cluster.
    control: Optional[ControlPolicy] = None
    #: Shared by every domain; each service opens its own epoch in it.
    store: Optional[RecordStore] = None
    #: The store's epoch id of this run's first service boot: readings
    #: count epochs from it, so a reused store reads like a fresh one.
    first_epoch: int = 1
    clock: Optional[Callable[[], float]] = None
    #: The sim driver, once :meth:`driver` built it.
    sim_driver: Optional[SimulatedServerDriver] = None

    def __post_init__(self) -> None:
        if self.simulator is not None:
            self.clock = SimulatedServerDriver.clock(self.simulator)

    def service_kwargs(self) -> Dict[str, object]:
        """The spec's server knobs, shared by lone-domain and shard builds."""
        spec = self.compiled.spec
        return dict(
            ladder=self.compiled.ladder(),
            queue_capacity=spec.server.queue_capacity,
            clock=self.clock,
            skip_downloads=spec.server.skip_downloads,
            max_conflict_retries=spec.server.max_conflict_retries,
            scenario=spec.name,
            store=self.store,
        )

    def service(self, configurator, **overrides) -> BatchingDomainService:
        """One domain's service (``overrides``: e.g. a shard's metrics)."""
        return BatchingDomainService(
            configurator,
            batch=BatchPolicy() if self.batched else UNBATCHED,
            **self.service_kwargs(),
            **overrides,
        )

    def driver(self, target) -> SimulatedServerDriver:
        server = self.compiled.spec.server
        self.sim_driver = SimulatedServerDriver(
            target,
            self.simulator,
            workers=server.workers,
            min_service_s=server.min_service_s,
        )
        return self.sim_driver


class _Node:
    """One level of the serving tree.

    A driver drives its ``target`` (a service, cluster or federation
    tier), whose ``metrics`` export the level's JSON. ``to_request``
    builds the target's requests, ``attributes`` label the root span and
    ``read`` gives the dispositions and extra metrics keys. Setups run
    the children first, teardowns run them last.
    """

    children: Sequence["_Node"] = ()

    def domains(self) -> List["_Domain"]:
        return [domain for child in self.children for domain in child.domains()]

    def registries(self) -> List[MetricsRegistry]:
        """The registries this subtree's ``control.*`` counters live in."""
        return [
            registry for child in self.children for registry in child.registries()
        ]

    def setup(self) -> None:
        for child in self.children:
            child.setup()

    def teardown(self) -> None:
        for child in reversed(self.children):
            child.teardown()


class _Domain(_Node):
    """One testbed and its service: a full instance of the document."""

    def __init__(
        self,
        build: _Build,
        name: str,
        testbed: ScenarioTestbed,
        service: BatchingDomainService,
        control: Optional[ControlPolicy] = None,
        cluster: Optional[DomainCluster] = None,
    ) -> None:
        self.build = build
        self.compiled = compiled = build.compiled
        self.name = name
        self.testbed = testbed
        self.target = service
        #: The cluster whose shard the service is, if any.
        self.cluster = cluster
        self.control = control
        self.to_request = compiled.request_factory(testbed)
        self.attributes = {"multiplier": build.multiplier}
        self.held: List[ApplicationSession] = []
        self.active: Dict[str, int] = {}
        self.kills: List[Dict[str, object]] = []
        self.faults = compiled.fault_schedule(build.multiplier)
        self.recovery = self._stack(self.faults)

    def _stack(
        self, faults: Optional[FaultSchedule], metrics=None
    ) -> Optional[RecoveryStack]:
        """A recovery stack over the testbed, arming ``faults`` (None
        without device faults or a controller)."""
        if faults is None and self.control is None:
            return None
        section = self.compiled.spec.faults
        return RecoveryStack(
            self.testbed,
            SimScheduler(self.build.simulator),
            heartbeat_interval_s=section.heartbeat_interval_s if section else 2.0,
            suspicion_threshold=section.suspicion_threshold if section else 3.0,
            ladder=self.compiled.ladder(),
            faults=faults,
            control_policy=self.control,
            metrics=metrics,
        )

    @classmethod
    def lone(cls, build: _Build) -> "_Domain":
        """The whole tree of a one-shard, one-cluster document."""
        testbed = build.compiled.build_testbed(clock=build.clock)
        service = build.service(testbed.configurator)
        return cls(build, "shard0", testbed, service, control=build.control)

    def domains(self) -> List["_Domain"]:
        return [self]

    def registries(self) -> List[MetricsRegistry]:
        return [self.recovery.metrics.registry] if self.recovery else []

    def setup(self) -> None:
        """Schedule the epoch kills, open the held sessions, then start
        the recovery stack."""
        for at_s in self.compiled.epoch_kills():
            self.build.simulator.schedule_at(at_s, self.kill)
        self._open_held()
        if self.recovery is not None:
            self.recovery.start(self.compiled.spec.arrivals.horizon_s)

    def _open_held(self) -> None:
        """Open every held session now as ``user-<client>`` (raising
        when one does not admit)."""
        spec = self.compiled.spec
        self.held = []
        for entry in spec.sessions:
            session = self.testbed.configurator.create_session(
                self.compiled.composition_request(
                    self.testbed, entry.workload, entry.client
                ),
                user_id=f"user-{entry.client}",
            )
            record = session.start(
                label=f"start:{entry.client}",
                skip_downloads=spec.server.skip_downloads,
            )
            if not record.success:
                raise AssertionError(
                    f"session {entry.workload!r} on {entry.client!r} "
                    "did not admit"
                )
            self.held.append(session)

    def kill(self) -> None:
        """The ``epoch_kill`` fault: the service dies, a successor boots.

        The dead service gets no teardown. Its sessions, holds, pending
        driver events and recovery timers die with it; its queued
        requests count as failed. The successor gets a fresh testbed and
        service on the same store, the dead service's metrics, lane and
        shard slot; it reopens the held sessions (they have no store
        record), re-adopts the dead epoch's active sessions, each to stop
        at its persisted end, and arms the device faults still to come.
        Arrivals keep composing against the first testbed: a request
        names only device ids and classes.
        """
        build = self.build
        now = build.simulator.now
        dead, previous = self.target, self.recovery
        if previous is not None:
            previous.stop()  # cancels its timers, touches no session
        dead.metrics.incr("failed", len(dead.queue.pop_many(dead.queue.depth)))
        self.testbed = build.compiled.build_testbed(clock=build.clock)
        self.target = build.service(self.testbed.configurator, metrics=dead.metrics)
        build.sim_driver.replace(dead, self.target)
        if self.cluster is not None:
            shards = self.cluster.shards
            shards[shards.index(dead)] = self.target
        self._open_held()
        successor = self.target
        report = readopt_sessions(
            successor,
            build.compiled.recovery_request_factory(self.testbed),
            epoch=dead.epoch,
        )
        for entry in report.sessions:
            if entry["action"] != "readopted":
                continue
            session_id = entry["session_id"]
            ends_s = successor.store.session(session_id).ends_s
            if ends_s is not None:
                build.sim_driver.stop_at(
                    successor,
                    successor.configurator.sessions[session_id],
                    ends_s,
                )
        self.kills.append(
            dict(
                report.to_dict(first_epoch=build.first_epoch),
                admitted=dead.metrics.count("admitted"),
            )
        )
        if previous is None:
            return
        faults = None
        if self.faults is not None:
            faults = FaultSchedule.of(
                *(
                    replace(fault, at_s=fault.at_s - now)
                    for fault in self.faults
                    if fault.at_s >= now
                )
            )
        self.recovery = self._stack(faults, metrics=previous.metrics)
        if previous.manager is not None:
            # One report list across the domain's epochs.
            self.recovery.manager.reports = previous.manager.reports
        self.recovery.start(max(0.0, self.compiled.spec.arrivals.horizon_s - now))

    def teardown(self) -> None:
        """Stop the recovery stack, count, then stop the held sessions."""
        if self.recovery is not None:
            self.recovery.stop()
        if not self.held:
            return
        running = [
            session.user_id
            for session in self.testbed.configurator.sessions.values()
            if session.running
        ]
        for session in self.held:
            self.active[session.user_id] = running.count(session.user_id)
            session.stop()

    def read(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        metrics = self.target.metrics
        submitted = metrics.count("submitted")
        counts = dict(
            shards=1,
            submitted=submitted,
            admitted=metrics.count("admitted"),
            degraded=metrics.count("admitted_degraded"),
            shed=metrics.shed_total,
            failed=metrics.count("failed"),
            conflict_retries=metrics.count("conflict_retries"),
            shed_rate=metrics.shed_total / submitted if submitted else 0.0,
            p50_total_ms=metrics.stage("total_ms").percentile(50),
            p99_total_ms=metrics.stage("total_ms").percentile(99),
        )
        return counts, {}

    def reading(self) -> Dict[str, object]:
        """This domain's entry in the result's ``domains``."""
        reading: Dict[str, object] = {}
        if self.held:
            reading["sessions"] = self.active
        recovery = self.recovery
        if recovery is not None and recovery.manager is not None:
            reading["recovery"] = {
                **recovery.metrics.registry.snapshot(),
                "reports": [report.to_dict() for report in recovery.manager.reports],
            }
        if self.kills:
            reading["epoch_kills"] = self.kills
        return reading


class _Cluster(_Node):
    """``cluster.shards`` domains behind one router, plus the cluster's
    controller in a controlled run. The first domain's testbed composes
    every request; the serving shard's own configurator deploys it.
    """

    def __init__(self, build: _Build, name: str = "") -> None:
        compiled = build.compiled
        control = build.control
        spec = compiled.spec
        shards = spec.cluster.shards
        testbeds = [compiled.build_testbed(clock=build.clock) for _ in range(shards)]
        self.name = name
        self.horizon_s = spec.arrivals.horizon_s
        self.target = DomainCluster.build(
            [testbed.configurator for testbed in testbeds],
            router=make_router(spec.cluster.router, shards),
            registry=MetricsRegistry(clock=build.clock if control else None),
            batched=build.batched,
            **build.service_kwargs(),
        )
        prefix = f"{name}." if name else ""
        self.children = [
            _Domain(
                build, f"{prefix}shard{index}", testbed, service, cluster=self.target
            )
            for index, (testbed, service) in enumerate(
                zip(testbeds, self.target.shards)
            )
        ]
        self.to_request = self.children[0].to_request
        self.attributes = {"shards": shards}
        self.controller = None
        if control is not None:
            self.controller = self.target.attach_controller(
                SimScheduler(build.simulator), policy=control
            )

    def registries(self) -> List[MetricsRegistry]:
        return [self.target.registry] + super().registries()

    def setup(self) -> None:
        super().setup()
        if self.controller is not None:
            self.controller.start(horizon_s=self.horizon_s)

    def teardown(self) -> None:
        if self.controller is not None:
            self.controller.stop()
        super().teardown()

    def read(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        whole = self.target.metrics.snapshot()["cluster"]
        shards = self.target.shard_count
        return _whole_counts(whole, shards), {"shard_count": shards}


class _Federation(_Node):
    """``federation.clusters`` member clusters under one tier, plus its
    roams. Each member keeps its own metrics registry, so the members'
    shard counters never alias; whichever member serves a request
    composes it against its own first testbed.
    """

    def __init__(self, build: _Build) -> None:
        compiled = build.compiled
        if compiled.epoch_kills():
            raise ScenarioValidationError(
                "federation.clusters",
                "an epoch_kill needs a single-cluster scenario: a session "
                "that roamed in has no store record, so a kill would lose it",
            )
        self.build = build
        self.children = [
            _Cluster(build, name) for name in compiled.member_names()
        ]
        self.target = FederationTier(
            [
                FederationMember.with_ladder(
                    member.name, member.target, compiled.ladder()
                )
                for member in self.children
            ],
            escalation=(compiled.spec.federation or FederationSpec()).escalation,
        )
        self.attributes = {
            "clusters": self.target.member_count,
            "multiplier": build.multiplier,
        }
        factories = {member.name: member.to_request for member in self.children}

        def to_request(event: ArrivalEvent) -> FederatedRequest:
            return FederatedRequest(
                request_id=f"req-{event.request_id}",
                home=compiled.home_for(event),
                make_request=lambda member: factories[member.name](event),
            )

        self.to_request = to_request

    def setup(self) -> None:
        roams = MigrationSchedule(self.target, self.build.simulator)
        for roam in self.build.compiled.roams(self.build.arrivals):
            roams.schedule(*roam)
        super().setup()

    def read(self) -> Tuple[Dict[str, object], Dict[str, object]]:
        snapshot = self.target.metrics.snapshot()
        shards = self.build.compiled.spec.cluster.shards
        counts = _whole_counts(snapshot["federation"], shards)
        counts.update(
            clusters=self.target.member_count,
            escalations=snapshot["routing"]["escalations"],
            migrations_committed=snapshot["migration"]["committed"],
        )
        return counts, {"clusters": self.target.member_count, "shard_count": shards}


def _plan(build: _Build) -> _Node:
    """The document's serving tree."""
    spec = build.compiled.spec
    if spec.clusters > 1:
        return _Federation(build)
    if spec.cluster.shards > 1:
        return _Cluster(build)
    return _Domain.lone(build)


def build_federation(
    compiled: Union[ScenarioSpec, CompiledScenario],
    clock=None,
    batched: bool = False,
) -> Tuple[FederationTier, Dict[str, List[ScenarioTestbed]]]:
    """The federation node of the serving tree, outside a run, as
    ``(tier, testbeds_by_member)``: requests are composed against the
    serving member's own testbeds."""
    root = _Federation(_Build(_as_compiled(compiled), batched=batched, clock=clock))
    return root.target, {
        member.name: [domain.testbed for domain in member.children]
        for member in root.children
    }


def _whole_counts(whole: Dict[str, object], shards: int) -> Dict[str, object]:
    """A cluster's or a federation's dispositions, from its merged view."""
    latency = whole["latency"]["total_ms"]
    return dict(
        shards=shards,
        submitted=whole["submitted"],
        admitted=whole["admitted"],
        degraded=whole["degraded"],
        shed=whole["shed_final"],
        failed=whole["failed"],
        conflict_retries=whole["conflict_retries"],
        shed_rate=whole["derived"]["shed_rate"],
        p50_total_ms=latency.get("p50", 0.0),
        p99_total_ms=latency.get("p99", 0.0),
    )


def _read(
    root: _Node, build: _Build, horizon_s: float, trace_ndjson: str = ""
) -> ScenarioRunResult:
    """The run's result: the root's dispositions and metrics, every
    domain's reading, and the control counters summed over the tree."""
    spec = build.compiled.spec
    counts, extra = root.read()
    domains = root.domains()
    readings = {domain.name: domain.reading() for domain in domains}
    metrics_json = root.target.metrics.to_json(
        extra={
            "scenario": spec.name,
            "seed": spec.seed,
            "multiplier": build.multiplier,
            "horizon_s": horizon_s,
            **extra,
        }
    )
    # Read after the exports: reading a counter registers it.
    for name in ("forecasts", "actuations", "reverts", "rebalanced"):
        counts[f"control_{name}"] = sum(
            registry.counter(f"control.{name}").value
            for registry in root.registries()
        )
    recovered = [domain.recovery.metrics for domain in domains if domain.recovery]
    return ScenarioRunResult(
        scenario=spec.name,
        seed=spec.seed,
        driver=("sim" if build.simulator else "thread")
        + ("-batched" if build.batched else ""),
        multiplier=build.multiplier,
        horizon_s=horizon_s,
        router=spec.cluster.router,
        controlled=build.control is not None,
        batched=build.batched,
        faulted=any("recovery" in reading for reading in readings.values()),
        throughput_per_min=(
            60.0 * counts["admitted"] / horizon_s if horizon_s else 0.0
        ),
        faults_injected=sum(m.count("faults_injected") for m in recovered),
        recoveries=sum(m.count("recoveries") for m in recovered),
        recovery_failures=sum(m.count("recovery_failures") for m in recovered),
        recovery=readings["shard0"].get("recovery") if len(domains) == 1 else None,
        domains=readings,
        metrics_json=metrics_json,
        trace_ndjson=trace_ndjson,
        **counts,
    )


@dataclass
class ScenarioSweep:
    """One scenario run at every cluster count × shard count × multiplier."""

    points: List[ScenarioRunResult] = field(default_factory=list)

    def point(
        self,
        multiplier: float,
        shards: Optional[int] = None,
        clusters: Optional[int] = None,
    ) -> ScenarioRunResult:
        for point in self.points:
            if (
                point.multiplier == multiplier
                and shards in (None, point.shards)
                and clusters in (None, point.clusters)
            ):
                return point
        raise KeyError(
            f"no point for {clusters} clusters of {shards} shards "
            f"at x{multiplier}"
        )

    def to_json(self) -> str:
        """Deterministic JSON of every point (sorted keys, no whitespace)."""
        return json.dumps(
            {"points": [point.as_dict() for point in self.points]},
            sort_keys=True,
            separators=(",", ":"),
        )

    def format_table(self) -> str:
        first = self.points[0]
        federated = any(point.clusters > 1 for point in self.points)
        faulted = any(point.faulted for point in self.points)
        columns = [
            (federated, "clusters", 9, lambda p: p.clusters),
            (True, "shards", 7, lambda p: p.shards),
            (True, "load x", 8, lambda p: f"{p.multiplier:.2f}"),
            (True, "submitted", 11, lambda p: p.submitted),
            (True, "admitted", 10, lambda p: p.admitted),
            (True, "degraded", 10, lambda p: p.degraded),
            (True, "shed", 7, lambda p: p.shed),
            (True, "failed", 8, lambda p: p.failed),
            (True, "thr/min", 9, lambda p: f"{p.throughput_per_min:.2f}"),
            (True, "shed%", 8, lambda p: f"{100.0 * p.shed_rate:.1f}%"),
            (federated, "escal", 7, lambda p: p.escalations),
            (federated, "migr", 6, lambda p: p.migrations_committed),
            (faulted, "faults", 8, lambda p: p.faults_injected),
            (faulted, "recovered", 11, lambda p: p.recoveries),
            (faulted, "unrecov", 9, lambda p: p.recovery_failures),
            (faulted, "MTTR ms", 9, lambda p: f"{p.mean_mttr_ms():.1f}"),
        ]
        shown = [column[1:] for column in columns if column[0]]
        lines = [
            f"Scenario {first.scenario!r} "
            f"(seed {first.seed}, driver {first.driver}, "
            f"horizon {first.horizon_s:g}s, router {first.router})",
            "",
            "".join(f"{name:>{width}}" for name, width, _ in shown),
        ]
        for point in self.points:
            lines.append(
                "".join(f"{cell(point):>{width}}" for _, width, cell in shown)
            )
        return "\n".join(lines)

    def trace_ndjson(self) -> str:
        """Concatenated span NDJSON across points ("" when untraced)."""
        return "".join(point.trace_ndjson for point in self.points)


def run_sweep(
    scenario: Union[ScenarioSpec, CompiledScenario],
    multipliers: Sequence[float],
    shards: Optional[Sequence[int]] = None,
    horizon_s: Optional[float] = None,
    clusters: Optional[Sequence[int]] = None,
    **run_kwargs,
) -> ScenarioSweep:
    """Run one scenario at every cluster count × shard count × multiplier.

    ``clusters`` overrides ``federation.clusters`` and ``shards``
    ``cluster.shards`` (default: the spec's own counts), and
    ``horizon_s`` the arrival horizon; every point is a fresh
    :func:`run_scenario` with ``run_kwargs``, cluster counts in the
    outer loop and shard counts inside. The same arrival trace (per
    multiplier and cluster count) meets every shard count.
    """
    spec = _as_compiled(scenario).spec
    if horizon_s is not None:
        spec = replace(
            spec, arrivals=replace(spec.arrivals, horizon_s=horizon_s)
        )
    sweep = ScenarioSweep()
    for cluster_count in clusters or (None,):
        if cluster_count is not None:
            if cluster_count < 1:
                raise ValueError("need at least one cluster")
            spec = replace(
                spec,
                federation=replace(
                    spec.federation or FederationSpec(), clusters=cluster_count
                ),
            )
        for shard_count in shards or (spec.cluster.shards,):
            if shard_count < 1:
                raise ValueError("need at least one shard")
            point_spec = replace(
                spec, cluster=replace(spec.cluster, shards=shard_count)
            )
            compiled = compile_scenario(point_spec)
            for multiplier in multipliers:
                sweep.points.append(
                    run_scenario(compiled, multiplier=multiplier, **run_kwargs)
                )
    return sweep



__all__ = [
    "ScenarioRunResult",
    "ScenarioSweep",
    "build_federation",
    "run_scenario",
    "run_sweep",
]
