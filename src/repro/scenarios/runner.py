"""Running compiled scenarios end to end.

:func:`run_scenario` is the one execution path behind ``python -m repro
scenario``: it lowers the spec (testbed, ladder, trace, faults), picks
the driver (deterministic sim replay or a real thread pool), optionally
layers the chaos stack, the predictive controller, batched admission, or
a sharded cluster on top, audits every ledger, and returns a
:class:`ScenarioRunResult` whose ``to_json`` is byte-identical across
runs of the same document + seed under the sim driver.

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
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.control.controller import ControlPolicy, QoSController
from repro.faults.detector import FailureDetector
from repro.faults.injector import FaultInjector
from repro.faults.metrics import RecoveryMetrics
from repro.faults.recovery import RecoveryManager, RecoveryPolicy
from repro.observability.metrics import MetricsRegistry
from repro.observability.tracing import Tracer, activated
from repro.runtime.clock import SimScheduler
from repro.server.batching import BatchingDomainService
from repro.server.cluster import (
    ConsistentHashRouter,
    DomainCluster,
    LeastLoadedRouter,
)
from repro.server.drivers import SimulatedServerDriver, ThreadPoolDriver
from repro.server.service import UNBATCHED, BatchPolicy
from repro.sim.kernel import Simulator
from repro.store import (
    ReadoptionReport,
    RecordStore,
    SqliteRecordStore,
    readopt_sessions,
)
from repro.scenarios.compile import CompiledScenario, compile_scenario
from repro.scenarios.spec import ScenarioSpec


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
    metrics_json: str = "{}"
    #: NDJSON span export when traced ("" otherwise); excluded from
    #: ``as_dict`` so the JSON artifact is trace-independent.
    trace_ndjson: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
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

    ``controlled=None`` follows the spec's ``control.enabled`` knob; an
    explicit boolean overrides it. ``store`` plugs a durable record store
    into the (single-shard) service; the default in-memory store keeps
    the run's behaviour byte-identical to a storeless one.
    """
    compiled = _as_compiled(scenario)
    spec = compiled.spec
    if driver not in ("sim", "thread"):
        raise ValueError(f"unknown driver {driver!r} (choose sim or thread)")
    if multiplier <= 0:
        raise ValueError("load multiplier must be positive")
    if controlled is None:
        controlled = spec.control.enabled
    if spec.faults is not None and driver != "sim":
        raise ValueError("fault schedules require the sim driver")
    if spec.cluster.shards > 1:
        if store is not None:
            raise ValueError("durable stores attach to single-shard runs")
        return _run_cluster(
            compiled, driver, multiplier, trace, controlled, batched,
            thread_timeout_s,
        )
    return _run_single(
        compiled, driver, multiplier, trace, controlled, batched, store,
        thread_timeout_s,
    )


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


def _make_service(
    compiled: CompiledScenario,
    testbed,
    clock,
    batched: bool,
    store: Optional[RecordStore],
) -> BatchingDomainService:
    return BatchingDomainService(
        testbed.configurator,
        store=store,
        batch=BatchPolicy() if batched else UNBATCHED,
        **_service_kwargs(compiled, clock),
    )


def _run_single(
    compiled: CompiledScenario,
    driver: str,
    multiplier: float,
    trace: bool,
    controlled: bool,
    batched: bool,
    store: Optional[RecordStore],
    thread_timeout_s: float,
) -> ScenarioRunResult:
    spec = compiled.spec
    faulted = spec.faults is not None

    if driver == "thread":
        return _run_single_thread(
            compiled, multiplier, controlled, batched, store, thread_timeout_s
        )

    simulator = Simulator()
    scheduler = SimScheduler(simulator)
    sim_clock = SimulatedServerDriver.clock(simulator)
    testbed = compiled.build_testbed(clock=sim_clock)
    service = _make_service(compiled, testbed, sim_clock, batched, store)
    sim_driver = SimulatedServerDriver(
        service,
        simulator,
        workers=spec.server.workers,
        min_service_s=spec.server.min_service_s,
    )
    arrivals = compiled.arrival_trace(multiplier=multiplier)

    recovery_metrics: Optional[RecoveryMetrics] = None
    detector = injector = manager = controller = None
    if faulted or controlled:
        recovery_metrics = RecoveryMetrics()
        faults = spec.faults
        heartbeat_s = faults.heartbeat_interval_s if faults else 2.0
        suspicion = faults.suspicion_threshold if faults else 3.0
        detector = FailureDetector(
            testbed.server,
            scheduler,
            heartbeat_interval_s=heartbeat_s,
            suspicion_threshold=suspicion,
            metrics=recovery_metrics,
        )
        policy = RecoveryPolicy()
        if faulted:
            injector = FaultInjector(
                testbed.server, scheduler, metrics=recovery_metrics
            )
            manager = RecoveryManager(
                testbed.configurator,
                scheduler,
                ladder=compiled.ladder(),
                policy=policy,
                metrics=recovery_metrics,
            )
        if controlled:
            controller = QoSController(
                scheduler,
                policy=ControlPolicy(
                    tick_interval_s=spec.control.tick_interval_s,
                    window_s=spec.control.window_s,
                ),
                detector=detector,
                configurator=testbed.configurator,
                registry=recovery_metrics.registry,
            )
        # Room after the horizon for late detections and backed-off
        # recovery attempts (the chaos sweep's drain formula).
        drain_s = (
            (suspicion + 3.0) * heartbeat_s
            + policy.max_backoff_s * policy.max_attempts
        )
        detector.start(horizon_s=spec.arrivals.horizon_s + drain_s)
        if controller is not None:
            controller.start(horizon_s=spec.arrivals.horizon_s + drain_s)
        if injector is not None:
            schedule = compiled.fault_schedule()
            assert schedule is not None
            injector.arm(schedule)

    tracer: Optional[Tracer] = Tracer(sim_clock) if trace else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(activated(tracer))
            stack.enter_context(
                tracer.span(
                    "run.scenario",
                    scenario=spec.name,
                    seed=spec.seed,
                    multiplier=multiplier,
                )
            )
        sim_driver.schedule_trace(arrivals, compiled.request_factory(testbed))
        sim_driver.run()
        if detector is not None:
            detector.stop()
        if controller is not None:
            controller.stop()
        if manager is not None:
            manager.close()
        if injector is not None:
            injector.disarm()
        problems = service.ledger.audit()
        if problems:
            raise AssertionError(
                "ledger invariant violated during scenario run: "
                + "; ".join(problems)
            )

    return _single_result(
        compiled,
        service,
        arrivals.horizon_s,
        driver="sim" + ("-batched" if batched else ""),
        multiplier=multiplier,
        controlled=controlled,
        batched=batched,
        faulted=faulted,
        recovery_metrics=recovery_metrics,
        trace_ndjson=tracer.export_ndjson() if tracer is not None else "",
    )


def _run_single_thread(
    compiled: CompiledScenario,
    multiplier: float,
    controlled: bool,
    batched: bool,
    store: Optional[RecordStore],
    thread_timeout_s: float,
) -> ScenarioRunResult:
    """Burst-replay the trace through a real worker pool.

    Time-compressed open loop: arrival times are ignored, every request
    is submitted immediately. Dispositions are timing-dependent; only the
    invariants (ledger audits clean, one disposition per request) are
    asserted. ``controlled`` is ignored — the control plane needs a
    logical clock to be meaningful in a compressed replay.
    """
    spec = compiled.spec
    testbed = compiled.build_testbed()
    service = _make_service(compiled, testbed, None, batched, store)
    pool = ThreadPoolDriver(service, workers=max(2, spec.server.workers))
    arrivals = compiled.arrival_trace(multiplier=multiplier)
    to_request = compiled.request_factory(testbed)
    pool.start()
    try:
        for event in arrivals:
            service.submit(to_request(event))
        pool.wait_idle(timeout=thread_timeout_s)
    finally:
        pool.stop()
    for outcome in service.outcomes():
        service.stop_session(outcome)
    problems = service.ledger.audit()
    if problems:
        raise AssertionError(
            "ledger invariant violated during scenario run: "
            + "; ".join(problems)
        )
    return _single_result(
        compiled,
        service,
        arrivals.horizon_s,
        driver="thread" + ("-batched" if batched else ""),
        multiplier=multiplier,
        controlled=False,
        batched=batched,
        faulted=False,
        recovery_metrics=None,
        trace_ndjson="",
    )


def _single_result(
    compiled: CompiledScenario,
    service,
    horizon_s: float,
    driver: str,
    multiplier: float,
    controlled: bool,
    batched: bool,
    faulted: bool,
    recovery_metrics: Optional[RecoveryMetrics],
    trace_ndjson: str,
) -> ScenarioRunResult:
    spec = compiled.spec
    metrics = service.metrics
    submitted = metrics.count("submitted")
    admitted = metrics.count("admitted")
    metrics_json = metrics.to_json(
        extra={
            "scenario": spec.name,
            "seed": spec.seed,
            "multiplier": multiplier,
            "horizon_s": horizon_s,
        }
    )
    return ScenarioRunResult(
        scenario=spec.name,
        seed=spec.seed,
        driver=driver,
        multiplier=multiplier,
        horizon_s=horizon_s,
        shards=1,
        router=spec.cluster.router,
        controlled=controlled,
        batched=batched,
        faulted=faulted,
        submitted=submitted,
        admitted=admitted,
        degraded=metrics.count("admitted_degraded"),
        shed=metrics.shed_total,
        failed=metrics.count("failed"),
        conflict_retries=metrics.count("conflict_retries"),
        throughput_per_min=60.0 * admitted / horizon_s if horizon_s else 0.0,
        shed_rate=metrics.shed_total / submitted if submitted else 0.0,
        p50_total_ms=metrics.stage("total_ms").percentile(50),
        p99_total_ms=metrics.stage("total_ms").percentile(99),
        faults_injected=(
            recovery_metrics.count("faults_injected") if recovery_metrics else 0
        ),
        recoveries=(
            recovery_metrics.count("recoveries") if recovery_metrics else 0
        ),
        recovery_failures=(
            recovery_metrics.count("recovery_failures")
            if recovery_metrics
            else 0
        ),
        metrics_json=metrics_json,
        trace_ndjson=trace_ndjson,
    )


def _make_router(name: str, shard_count: int):
    if name == "hash":
        return ConsistentHashRouter(shard_count)
    if name == "least-loaded":
        return LeastLoadedRouter()
    raise ValueError(f"unknown router {name!r}")


def _run_cluster(
    compiled: CompiledScenario,
    driver: str,
    multiplier: float,
    trace: bool,
    controlled: bool,
    batched: bool,
    thread_timeout_s: float,
) -> ScenarioRunResult:
    spec = compiled.spec
    shard_count = spec.cluster.shards
    simulator = Simulator() if driver == "sim" else None
    sim_clock = (
        SimulatedServerDriver.clock(simulator) if simulator is not None else None
    )
    registry = MetricsRegistry(
        clock=sim_clock if (controlled and sim_clock is not None) else None
    )
    testbeds = [
        compiled.build_testbed(clock=sim_clock) for _ in range(shard_count)
    ]
    cluster = DomainCluster.build(
        [testbed.configurator for testbed in testbeds],
        router=_make_router(spec.cluster.router, shard_count),
        registry=registry,
        batched=batched,
        **_service_kwargs(compiled, sim_clock),
    )
    arrivals = compiled.arrival_trace(multiplier=multiplier)
    to_request = compiled.request_factory(testbeds[0])

    tracer: Optional[Tracer] = None
    if driver == "sim":
        assert simulator is not None
        controller = None
        if controlled:
            controller = cluster.attach_controller(
                SimScheduler(simulator),
                policy=ControlPolicy(
                    tick_interval_s=spec.control.tick_interval_s,
                    window_s=spec.control.window_s,
                ),
            )
        cluster_driver = SimulatedServerDriver(
            cluster,
            simulator,
            workers=spec.server.workers,
            min_service_s=spec.server.min_service_s,
        )
        tracer = Tracer(sim_clock) if trace else None
        with ExitStack() as stack:
            if tracer is not None:
                stack.enter_context(activated(tracer))
                stack.enter_context(
                    tracer.span(
                        "run.scenario",
                        scenario=spec.name,
                        seed=spec.seed,
                        shards=shard_count,
                    )
                )
            if controller is not None:
                controller.start(horizon_s=spec.arrivals.horizon_s)
            cluster_driver.schedule_trace(arrivals, to_request)
            cluster_driver.run()
            if controller is not None:
                controller.stop()
            problems = cluster.audit()
            if problems:
                raise AssertionError(
                    "cluster ledger invariant violated: " + "; ".join(problems)
                )
    else:
        pool = ThreadPoolDriver(cluster, workers=max(2, spec.server.workers))
        pool.start()
        try:
            for event in arrivals:
                cluster.submit(to_request(event))
            pool.wait_idle(timeout=thread_timeout_s)
        finally:
            pool.stop()
        problems = cluster.audit()
        if problems:
            raise AssertionError(
                "cluster ledger invariant violated: " + "; ".join(problems)
            )

    snapshot = cluster.metrics.snapshot()
    whole = snapshot["cluster"]
    submitted = whole["submitted"]
    admitted = whole["admitted"]
    horizon_s = arrivals.horizon_s
    metrics_json = cluster.metrics.to_json(
        extra={
            "scenario": spec.name,
            "seed": spec.seed,
            "multiplier": multiplier,
            "horizon_s": horizon_s,
            "shard_count": shard_count,
        }
    )
    return ScenarioRunResult(
        scenario=spec.name,
        seed=spec.seed,
        driver=driver + ("-batched" if batched else ""),
        multiplier=multiplier,
        horizon_s=horizon_s,
        shards=shard_count,
        router=spec.cluster.router,
        controlled=controlled and driver == "sim",
        batched=batched,
        faulted=False,
        submitted=submitted,
        admitted=admitted,
        degraded=whole["degraded"],
        shed=whole["shed_final"],
        failed=whole["failed"],
        conflict_retries=0,
        throughput_per_min=60.0 * admitted / horizon_s if horizon_s else 0.0,
        shed_rate=whole["derived"]["shed_rate"],
        p50_total_ms=whole["latency"]["total_ms"].get("p50", 0.0),
        p99_total_ms=whole["latency"]["total_ms"].get("p99", 0.0),
        metrics_json=metrics_json,
        trace_ndjson=tracer.export_ndjson() if tracer is not None else "",
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
    if store is None:
        store = SqliteRecordStore(store_path or ":memory:")
    crash_at_s = spec.arrivals.horizon_s * crash_at_fraction
    arrivals = compiled.arrival_trace(multiplier=multiplier)

    # -- phase one: run to the crash point, then vanish ----------------
    sim1 = Simulator()
    clock1 = SimulatedServerDriver.clock(sim1)
    testbed1 = compiled.build_testbed(clock=clock1)
    service1 = _make_service(compiled, testbed1, clock1, False, store)
    crashed_epoch = service1.epoch
    driver1 = SimulatedServerDriver(
        service1,
        sim1,
        workers=spec.server.workers,
        min_service_s=spec.server.min_service_s,
    )
    driver1.schedule_trace(arrivals, compiled.request_factory(testbed1))
    driver1.run(until=crash_at_s)
    pre_crash_admitted = service1.metrics.count("admitted")
    # Deliberately no teardown: service1's sessions, holds and queue die
    # with its process. Only the store survives.

    # -- phase two: fresh boot on the same store -----------------------
    sim2 = Simulator()
    clock2 = SimulatedServerDriver.clock(sim2)
    testbed2 = compiled.build_testbed(clock=clock2)
    service2 = _make_service(compiled, testbed2, clock2, False, store)
    report = readopt_sessions(
        service2, compiled.recovery_request_factory(testbed2)
    )
    driver2 = SimulatedServerDriver(
        service2,
        sim2,
        workers=spec.server.workers,
        min_service_s=spec.server.min_service_s,
    )
    remainder = [e for e in arrivals if e.arrival_s >= crash_at_s]
    to_request = compiled.request_factory(testbed2)
    for event in remainder:
        sim2.schedule_at(
            event.arrival_s - crash_at_s,
            lambda e=event: driver2.arrive(to_request(e)),
        )
    driver2.run()
    problems = service2.ledger.audit()
    if problems:
        raise AssertionError(
            "successor ledger invariant violated after re-adoption: "
            + "; ".join(problems)
        )

    resumed = _single_result(
        compiled,
        service2,
        spec.arrivals.horizon_s - crash_at_s,
        driver="sim",
        multiplier=multiplier,
        controlled=False,
        batched=False,
        faulted=False,
        recovery_metrics=None,
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
    "run_crash_restart",
    "run_scenario",
]
