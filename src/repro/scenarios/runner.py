"""Running compiled scenarios end to end.

:func:`run_scenario` is the one execution path behind ``python -m repro
scenario``. It lowers the spec (testbed, ladder, trace, faults) and
builds one target: a single service when ``cluster.shards == 1``, a
:class:`~repro.server.cluster.DomainCluster` otherwise, and a
:class:`~repro.federation.tier.FederationTier` of such clusters when
``federation.clusters > 1`` (:func:`build_federation`). That target goes
through the serving harness in :mod:`repro.server.drivers` — a
deterministic :func:`~repro.server.drivers.sim_replay` or a real
:func:`~repro.server.drivers.thread_burst` — optionally with the
recovery stack (:mod:`repro.faults.stack`) or the cluster's predictive
controller alongside, and batched admission on either. Both drivers end
in the shared ledger audit. One result builder reads the service's or
the cluster's or the federation's metrics into a
:class:`ScenarioRunResult` whose ``to_json`` is byte-identical across
runs of the same document + seed under the sim driver. :func:`run_sweep`
runs one document at every cluster count × shard count × load
multiplier, one :func:`run_scenario` per point.

:func:`run_crash_restart` is the durability counterpart: phase one runs
the scenario against a shared (sqlite) record store and stops abruptly
mid-horizon — no teardown, exactly like a process crash; phase two boots
a *fresh* service on the same store, re-adopts the dead epoch's persisted
sessions through normal admission, reconciles its dangling ledger holds,
and replays the rest of the trace. The returned report asserts both
ledgers balanced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.control.controller import ControlPolicy
from repro.faults.stack import RecoveryStack
from repro.federation.migration import MigrationSchedule
from repro.federation.tier import FederationMember, FederationTier
from repro.observability.metrics import MetricsRegistry
from repro.runtime.clock import SimScheduler
from repro.server.batching import BatchingDomainService
from repro.server.cluster import DomainCluster, make_router
from repro.server.drivers import (
    SimulatedServerDriver,
    sim_replay,
    thread_burst,
)
from repro.server.service import UNBATCHED, BatchPolicy
from repro.sim.kernel import Simulator
from repro.store import (
    ReadoptionReport,
    RecordStore,
    SqliteRecordStore,
    readopt_sessions,
)
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
    faults_injected: int = 0
    recoveries: int = 0
    recovery_failures: int = 0
    control_forecasts: int = 0
    control_actuations: int = 0
    control_reverts: int = 0
    control_rebalanced: int = 0
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
        federation = (
            {
                "clusters": self.clusters,
                "escalations": self.escalations,
                "migrations_committed": self.migrations_committed,
            }
            if self.clusters > 1
            else {}
        )
        return {
            **federation,
            "scenario": self.scenario,
            "seed": self.seed,
            "driver": self.driver,
            "multiplier": self.multiplier,
            "horizon_s": self.horizon_s,
            "shards": self.shards,
            "router": self.router,
            "controlled": self.controlled,
            "batched": self.batched,
            "faulted": self.faulted,
            "submitted": self.submitted,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "shed": self.shed,
            "failed": self.failed,
            "conflict_retries": self.conflict_retries,
            "throughput_per_min": round(self.throughput_per_min, 6),
            "shed_rate": round(self.shed_rate, 6),
            "p50_total_ms": round(self.p50_total_ms, 6),
            "p99_total_ms": round(self.p99_total_ms, 6),
            "faults_injected": self.faults_injected,
            "recoveries": self.recoveries,
            "recovery_failures": self.recovery_failures,
            "control_forecasts": self.control_forecasts,
            "control_actuations": self.control_actuations,
            "control_reverts": self.control_reverts,
            "control_rebalanced": self.control_rebalanced,
            "metrics": json.loads(self.metrics_json),
        }

    def to_json(self) -> str:
        """Deterministic JSON artifact (sorted keys, no whitespace)."""
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

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
    """Run one scenario end to end and audit every ledger.

    The target is one service when ``cluster.shards == 1``, a
    :class:`~repro.server.cluster.DomainCluster` otherwise, and a
    federation of such clusters when ``federation.clusters > 1``; all go
    through the same sim replay or thread burst. ``controlled=None``
    follows the spec's ``control.enabled`` knob; an explicit boolean
    overrides it (the thread driver never controls: the control plane
    needs a logical clock). ``store`` plugs a durable record store into
    the (single-shard) service; the default in-memory store keeps the
    run's behaviour byte-identical to a storeless one. A federation runs
    without the control plane and without a store.

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
    if controlled is None:
        controlled = spec.control.enabled
    if spec.clusters > 1 and (controlled or store is not None):
        raise ScenarioValidationError(
            "federation.clusters",
            f"{'--controlled' if controlled else '--store'} requires a "
            "single-cluster scenario (federation.clusters == 1)",
        )
    controlled = controlled and driver == "sim"
    if spec.faults is not None and driver != "sim":
        raise ValueError("fault schedules require the sim driver")
    if spec.cluster.shards > 1 and store is not None:
        raise ValueError("durable stores attach to single-shard runs")

    simulator = Simulator() if driver == "sim" else None
    clock = SimulatedServerDriver.clock(simulator) if simulator else None
    if spec.clusters > 1:
        target, testbeds = build_federation(compiled, clock, batched)
        to_request = compiled.federated_request_factory(testbeds)
    else:
        target, testbed = _build_target(
            compiled, clock, controlled, batched, store
        )
        to_request = compiled.request_factory(testbed)
    arrivals = compiled.arrival_trace(multiplier=multiplier)
    recovery: Optional[RecoveryStack] = None
    trace_ndjson = ""
    if simulator is None:
        thread_burst(
            target,
            (to_request(event) for event in arrivals),
            max(2, spec.server.workers),
            thread_timeout_s,
            "scenario run",
        )
    else:
        replay = _sim_driver(compiled, target, simulator)
        control_policy = (
            ControlPolicy(
                tick_interval_s=spec.control.tick_interval_s,
                window_s=spec.control.window_s,
            )
            if controlled
            else None
        )
        setup = teardown = None
        if isinstance(target, FederationTier):
            roams = MigrationSchedule(target, simulator)
            for roam in compiled.roams(arrivals):
                roams.schedule(*roam)
            attributes = dict(
                scenario=spec.name,
                seed=spec.seed,
                clusters=target.member_count,
                multiplier=multiplier,
            )
        elif isinstance(target, DomainCluster):
            if control_policy is not None:
                controller = target.attach_controller(
                    SimScheduler(simulator), policy=control_policy
                )
                setup = partial(
                    controller.start, horizon_s=spec.arrivals.horizon_s
                )
                teardown = controller.stop
            attributes = dict(
                scenario=spec.name, seed=spec.seed, shards=target.shard_count
            )
        else:
            faults = spec.faults
            if faults is not None or controlled:
                recovery = RecoveryStack(
                    testbed,
                    SimScheduler(simulator),
                    heartbeat_interval_s=(
                        faults.heartbeat_interval_s if faults else 2.0
                    ),
                    suspicion_threshold=(
                        faults.suspicion_threshold if faults else 3.0
                    ),
                    ladder=compiled.ladder(),
                    faults=compiled.fault_schedule(),
                    control_policy=control_policy,
                )
                recovery.start(spec.arrivals.horizon_s)
                teardown = recovery.stop
            attributes = dict(
                scenario=spec.name, seed=spec.seed, multiplier=multiplier
            )
        trace_ndjson = sim_replay(
            replay,
            arrivals,
            to_request,
            "scenario run",
            root_span=("run.scenario", attributes) if trace else None,
            setup=setup,
            teardown=teardown,
        )
    return _result(
        compiled,
        target,
        arrivals.horizon_s,
        driver=driver + ("-batched" if batched else ""),
        multiplier=multiplier,
        controlled=controlled,
        batched=batched,
        recovery=recovery,
        trace_ndjson=trace_ndjson,
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
        lines = [
            f"Scenario {first.scenario!r} "
            f"(seed {first.seed}, driver {first.driver}, "
            f"horizon {first.horizon_s:g}s, router {first.router})",
            "",
            (f"{'clusters':>9}" if federated else "")
            + f"{'shards':>7}{'load x':>8}{'submitted':>11}{'admitted':>10}"
            f"{'degraded':>10}{'shed':>7}{'failed':>8}{'thr/min':>9}"
            f"{'shed%':>8}"
            + (f"{'escal':>7}{'migr':>6}" if federated else ""),
        ]
        for p in self.points:
            lines.append(
                (f"{p.clusters:>9d}" if federated else "")
                + f"{p.shards:>7d}{p.multiplier:>8.2f}{p.submitted:>11d}"
                f"{p.admitted:>10d}{p.degraded:>10d}{p.shed:>7d}"
                f"{p.failed:>8d}{p.throughput_per_min:>9.2f}"
                f"{100.0 * p.shed_rate:>7.1f}%"
                + (
                    f"{p.escalations:>7d}{p.migrations_committed:>6d}"
                    if federated
                    else ""
                )
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
            point_spec.validate()
            compiled = compile_scenario(point_spec)
            for multiplier in multipliers:
                sweep.points.append(
                    run_scenario(compiled, multiplier=multiplier, **run_kwargs)
                )
    return sweep


def _build_service(
    compiled: CompiledScenario,
    clock,
    batched: bool,
    store: Optional[RecordStore],
) -> Tuple[BatchingDomainService, ScenarioTestbed]:
    """One testbed and the service over it, with the spec's server knobs."""
    testbed = compiled.build_testbed(clock=clock)
    service = BatchingDomainService(
        testbed.configurator,
        store=store,
        batch=BatchPolicy() if batched else UNBATCHED,
        **_service_kwargs(compiled, clock),
    )
    return service, testbed


def _build_cluster(
    compiled: CompiledScenario,
    clock,
    batched: bool,
    registry: MetricsRegistry,
) -> Tuple[DomainCluster, List[ScenarioTestbed]]:
    """``cluster.shards`` spec-built testbeds behind one cluster.

    Shards share devices and registries, so the first testbed composes
    every request; the serving shard's own configurator deploys it.
    """
    spec = compiled.spec
    shard_count = spec.cluster.shards
    testbeds = [compiled.build_testbed(clock=clock) for _ in range(shard_count)]
    cluster = DomainCluster.build(
        [testbed.configurator for testbed in testbeds],
        router=make_router(spec.cluster.router, shard_count),
        registry=registry,
        batched=batched,
        **_service_kwargs(compiled, clock),
    )
    return cluster, testbeds


def _build_target(
    compiled: CompiledScenario,
    clock,
    controlled: bool,
    batched: bool,
    store: Optional[RecordStore],
) -> Tuple[Union[BatchingDomainService, DomainCluster], ScenarioTestbed]:
    """The run's target and the testbed its requests are composed against."""
    if compiled.spec.cluster.shards == 1:
        return _build_service(compiled, clock, batched, store)
    cluster, testbeds = _build_cluster(
        compiled,
        clock,
        batched,
        MetricsRegistry(clock=clock if controlled else None),
    )
    return cluster, testbeds[0]


def build_federation(
    compiled: Union[ScenarioSpec, CompiledScenario],
    clock=None,
    batched: bool = False,
) -> Tuple[FederationTier, Dict[str, List[ScenarioTestbed]]]:
    """``federation.clusters`` member clusters under one federation tier.

    Each member is a :class:`~repro.server.cluster.DomainCluster` of
    ``cluster.shards`` spec-built testbeds with its *own* metrics
    registry (the shard namespace is per cluster, so two members sharing
    one would alias each other's counters); the tier keeps a separate
    registry for the ``federation.*`` series. A member's ladder headroom
    comes from the spec's ladder. Returns ``(tier, testbeds_by_member)``:
    requests are composed against the serving member's own testbeds.
    """
    compiled = _as_compiled(compiled)
    federation = compiled.spec.federation or FederationSpec()
    members: List[FederationMember] = []
    testbeds: Dict[str, List[ScenarioTestbed]] = {}
    for name in compiled.member_names():
        cluster, testbeds[name] = _build_cluster(
            compiled, clock, batched, MetricsRegistry()
        )
        members.append(
            FederationMember.with_ladder(name, cluster, compiled.ladder())
        )
    return FederationTier(members, escalation=federation.escalation), testbeds


def _service_kwargs(compiled: CompiledScenario, clock) -> Dict[str, object]:
    """The spec's server knobs, shared by single-domain and shard builds."""
    spec = compiled.spec
    return dict(
        ladder=compiled.ladder(),
        queue_capacity=spec.server.queue_capacity,
        clock=clock,
        skip_downloads=spec.server.skip_downloads,
        max_conflict_retries=spec.server.max_conflict_retries,
        scenario=spec.name,
    )


def _sim_driver(
    compiled: CompiledScenario, target, simulator: Simulator
) -> SimulatedServerDriver:
    server = compiled.spec.server
    return SimulatedServerDriver(
        target,
        simulator,
        workers=server.workers,
        min_service_s=server.min_service_s,
    )


def _result(
    compiled: CompiledScenario,
    target,
    horizon_s: float,
    driver: str,
    multiplier: float,
    controlled: bool,
    batched: bool,
    recovery: Optional[RecoveryStack],
    trace_ndjson: str,
) -> ScenarioRunResult:
    """The run's aggregate result, read from a service's, a cluster's or
    a federation's metrics."""
    spec = compiled.spec
    extra: Dict[str, object] = {
        "scenario": spec.name,
        "seed": spec.seed,
        "multiplier": multiplier,
        "horizon_s": horizon_s,
    }
    counts: Dict[str, object] = {}
    whole: Optional[Dict[str, object]] = None
    if isinstance(target, FederationTier):
        extra["clusters"] = target.member_count
        extra["shard_count"] = spec.cluster.shards
        snapshot = target.metrics.snapshot()
        whole = snapshot["federation"]
        counts.update(
            clusters=target.member_count,
            escalations=snapshot["routing"]["escalations"],
            migrations_committed=snapshot["migration"]["committed"],
        )
    elif isinstance(target, DomainCluster):
        extra["shard_count"] = target.shard_count
        whole = target.metrics.snapshot()["cluster"]
    if whole is not None:
        latency = whole["latency"]["total_ms"]
        counts.update(
            shards=spec.cluster.shards,
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
    else:
        metrics = target.metrics
        submitted = metrics.count("submitted")
        counts.update(
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
    recovered = recovery.metrics if recovery is not None else None
    metrics_json = target.metrics.to_json(extra=extra)
    # Read after the export: reading a counter registers it.
    if isinstance(target, DomainCluster):
        control = target.registry
    else:
        control = recovered.registry if recovered else None
    for name in ("forecasts", "actuations", "reverts", "rebalanced"):
        counts[f"control_{name}"] = (
            control.counter(f"control.{name}").value if control else 0
        )
    return ScenarioRunResult(
        scenario=spec.name,
        seed=spec.seed,
        driver=driver,
        multiplier=multiplier,
        horizon_s=horizon_s,
        router=spec.cluster.router,
        controlled=controlled,
        batched=batched,
        faulted=recovery is not None and recovery.injector is not None,
        throughput_per_min=(
            60.0 * counts["admitted"] / horizon_s if horizon_s else 0.0
        ),
        faults_injected=recovered.count("faults_injected") if recovered else 0,
        recoveries=recovered.count("recoveries") if recovered else 0,
        recovery_failures=(
            recovered.count("recovery_failures") if recovered else 0
        ),
        metrics_json=metrics_json,
        trace_ndjson=trace_ndjson,
        **counts,
    )


# ---------------------------------------------------------------------------
# crash-restart
# ---------------------------------------------------------------------------


@dataclass
class CrashRestartResult:
    """Two service lifetimes over one durable store, reconciled."""

    scenario: str
    seed: int
    crash_at_s: float
    crashed_epoch: int
    resumed_epoch: int
    active_at_crash: int
    report: ReadoptionReport
    resumed: ScenarioRunResult
    pre_crash_admitted: int = 0

    @property
    def balanced(self) -> bool:
        return self.report.balanced

    def as_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "crash_at_s": self.crash_at_s,
            "crashed_epoch": self.crashed_epoch,
            "resumed_epoch": self.resumed_epoch,
            "active_at_crash": self.active_at_crash,
            "pre_crash_admitted": self.pre_crash_admitted,
            "balanced": self.balanced,
            "recovery": self.report.to_dict(),
            "resumed": self.resumed.as_dict(),
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))


def run_crash_restart(
    scenario: Union[ScenarioSpec, CompiledScenario],
    store: Optional[RecordStore] = None,
    store_path: Optional[str] = None,
    crash_at_fraction: float = 0.5,
    multiplier: float = 1.0,
) -> CrashRestartResult:
    """Crash a scenario mid-horizon and recover it from the store.

    Phase one replays the trace up to ``crash_at_fraction`` of the
    horizon against the shared store and then simply stops — no session
    teardown, no ledger release; exactly what a process crash leaves
    behind. Phase two boots a fresh testbed and service (same store, new
    epoch), re-adopts the dead epoch's persisted sessions, reconciles its
    dangling committed holds, and replays the remaining arrivals shifted
    to the new service's time origin.
    """
    compiled = _as_compiled(scenario)
    spec = compiled.spec
    if not 0.0 < crash_at_fraction < 1.0:
        raise ValueError("crash_at_fraction must be in (0, 1)")
    if spec.clusters > 1:
        raise ScenarioValidationError(
            "federation.clusters",
            "--crash-restart requires a single-cluster scenario "
            "(federation.clusters == 1)",
        )
    if store is None:
        store = SqliteRecordStore(store_path or ":memory:")
    crash_at_s = spec.arrivals.horizon_s * crash_at_fraction
    arrivals = compiled.arrival_trace(multiplier=multiplier)

    # -- phase one: run to the crash point, then vanish ----------------
    sim1 = Simulator()
    service1, testbed1 = _build_service(
        compiled, SimulatedServerDriver.clock(sim1), False, store
    )
    crashed_epoch = service1.epoch
    driver1 = _sim_driver(compiled, service1, sim1)
    driver1.schedule_trace(arrivals, compiled.request_factory(testbed1))
    driver1.run(until=crash_at_s)
    pre_crash_admitted = service1.metrics.count("admitted")
    # Deliberately no teardown: service1's sessions, holds and queue die
    # with its process. Only the store survives.

    # -- phase two: fresh boot on the same store -----------------------
    sim2 = Simulator()
    service2, testbed2 = _build_service(
        compiled, SimulatedServerDriver.clock(sim2), False, store
    )
    report = readopt_sessions(
        service2, compiled.recovery_request_factory(testbed2)
    )
    # The rest of the trace, shifted to the new service's time origin.
    remainder = [
        replace(event, arrival_s=event.arrival_s - crash_at_s)
        for event in arrivals
        if event.arrival_s >= crash_at_s
    ]
    sim_replay(
        _sim_driver(compiled, service2, sim2),
        remainder,
        compiled.request_factory(testbed2),
        "re-adoption",
    )
    resumed = _result(
        compiled,
        service2,
        spec.arrivals.horizon_s - crash_at_s,
        driver="sim",
        multiplier=multiplier,
        controlled=False,
        batched=False,
        recovery=None,
        trace_ndjson="",
    )
    return CrashRestartResult(
        scenario=spec.name,
        seed=spec.seed,
        crash_at_s=crash_at_s,
        crashed_epoch=crashed_epoch,
        resumed_epoch=service2.epoch,
        active_at_crash=report.persisted_active,
        report=report,
        resumed=resumed,
        pre_crash_admitted=pre_crash_admitted,
    )


__all__ = [
    "CrashRestartResult",
    "ScenarioRunResult",
    "ScenarioSweep",
    "build_federation",
    "run_crash_restart",
    "run_scenario",
    "run_sweep",
]
