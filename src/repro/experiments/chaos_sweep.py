"""Recovery behaviour under seeded fault storms (chaos sweep).

The sweep runs the audio testbed with long-lived sessions while a
:class:`~repro.faults.injector.FaultInjector` replays a seeded Poisson
fault storm — silent crashes, link degradation/partitions, resource
pressure — at multiples of a base fault rate. A heartbeat
:class:`~repro.faults.detector.FailureDetector` earns the crash verdicts
and a :class:`~repro.faults.recovery.RecoveryManager` heals (or cleanly
tears down) the affected sessions. Per multiplier the sweep reports
recovery success rate, MTTR, detection latency and interruption time.

The expected shape: sessions whose lost device hosted only *movable*
components (the Jornada's transcoder) recover by redistribution, while
sessions that lose their pinned client device exhaust the bounded budget
and fail with a structured report — so the success rate degrades
gracefully, never chaotically, as the fault rate climbs.

Under the sim driver the whole run is logical-time deterministic:
``ChaosSweepResult.to_json`` is byte-identical for a fixed seed (the CI
chaos-smoke job asserts this). The same harness runs on wall-clock
threads via ``driver="thread"`` with a compressed timescale.
"""

from __future__ import annotations

import dataclasses
import json
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.audio_on_demand import (
    audio_degradation_ladder,
    audio_request,
    build_audio_testbed,
)
from repro.control.controller import ControlPolicy
from repro.faults.model import FaultSchedule, FaultSpec, random_fault_schedule
from repro.faults.recovery import RecoveryPolicy
from repro.faults.stack import RecoveryStack
from repro.observability.tracing import Tracer, activated
from repro.runtime.clock import SimScheduler, WallClockScheduler
from repro.server.drivers import audit_or_raise
from repro.server.ledger import ReservationLedger
from repro.sim.kernel import Simulator

#: Base per-kind fault rates (events/minute) at multiplier 1.0.
BASE_CRASH_RATE_PER_MIN = 0.4
BASE_LINK_RATE_PER_MIN = 0.5
BASE_PRESSURE_RATE_PER_MIN = 0.5

#: Devices eligible for silent crashes. desktop1 is excluded: it hosts the
#: registered audio-server endpoint, which is pinned for every session.
CRASH_TARGETS = ("desktop2", "desktop3")

#: Endpoint pairs for link degradation / partition faults.
LINK_PAIRS = (
    ("desktop2", "lan-switch"),
    ("desktop3", "lan-switch"),
    ("jornada", "access-point"),
)

#: Devices receiving background resource pressure.
PRESSURE_TARGETS = ("desktop1", "desktop2", "desktop3")

#: Clients with a long-lived session during the storm. The jornada
#: session carries a movable transcoder (recoverable after a crash of its
#: host); the desktop sessions are client-pinned (unrecoverable when their
#: own client dies).
SESSION_CLIENTS = ("jornada", "desktop2", "desktop3")

#: Faults are only injected in the first fraction of the horizon, so late
#: crashes still have room to be detected and recovered before the run ends.
INJECTION_WINDOW = 0.7


@dataclass(frozen=True)
class ChaosSweepPoint:
    """One fault-rate multiplier's aggregate recovery behaviour."""

    fault_multiplier: float
    faults_injected: int
    crashes: int
    suspicions: int
    sessions_affected: int
    recoveries: int
    recoveries_degraded: int
    recovery_failures: int
    recovery_success_rate: float
    mean_detection_ms: float
    mean_mttr_ms: float
    mean_interruption_ms: float
    reports: Tuple[Dict[str, object], ...]
    metrics_json: str
    #: NDJSON span export when the run was traced ("" otherwise). Kept out
    #: of ``as_dict`` so the golden sweep JSON stays byte-identical.
    trace_ndjson: str = ""
    #: Predictive control plane, when the run was ``controlled=True``.
    controlled: bool = False
    control_evacuations: int = 0
    control_sessions_moved: int = 0
    control_evacuation_reverts: int = 0
    #: Mean injection→repaired time for pre-emptively evacuated sessions
    #: (the controlled counterpart of detection + MTTR), 0.0 when none.
    mean_control_repair_ms: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "fault_multiplier": self.fault_multiplier,
            "faults_injected": self.faults_injected,
            "crashes": self.crashes,
            "suspicions": self.suspicions,
            "sessions_affected": self.sessions_affected,
            "recoveries": self.recoveries,
            "recoveries_degraded": self.recoveries_degraded,
            "recovery_failures": self.recovery_failures,
            "recovery_success_rate": round(self.recovery_success_rate, 6),
            "mean_detection_ms": round(self.mean_detection_ms, 6),
            "mean_mttr_ms": round(self.mean_mttr_ms, 6),
            "mean_interruption_ms": round(self.mean_interruption_ms, 6),
            "controlled": self.controlled,
            "control_evacuations": self.control_evacuations,
            "control_sessions_moved": self.control_sessions_moved,
            "control_evacuation_reverts": self.control_evacuation_reverts,
            "mean_control_repair_ms": round(self.mean_control_repair_ms, 6),
            "reports": list(self.reports),
            "metrics": json.loads(self.metrics_json),
        }


@dataclass
class ChaosSweepResult:
    """The whole sweep, one point per fault-rate multiplier."""

    seed: int
    horizon_s: float
    driver: str
    points: List[ChaosSweepPoint] = field(default_factory=list)
    controlled: bool = False

    def point(self, fault_multiplier: float) -> ChaosSweepPoint:
        for point in self.points:
            if point.fault_multiplier == fault_multiplier:
                return point
        raise KeyError(f"no point for multiplier {fault_multiplier}")

    def format_table(self) -> str:
        header = (
            f"{'fault x':>8}{'faults':>8}{'crashes':>9}{'affected':>10}"
            f"{'recovered':>11}{'degraded':>10}{'failed':>8}"
            f"{'success%':>10}{'MTTR ms':>10}{'detect ms':>11}"
        )
        lines = [
            "Recovery under seeded fault storms (chaos sweep)",
            f"(seed {self.seed}, horizon {self.horizon_s:g}s, "
            f"driver {self.driver})",
            "",
            header,
        ]
        for p in self.points:
            lines.append(
                f"{p.fault_multiplier:>8.2f}{p.faults_injected:>8d}"
                f"{p.crashes:>9d}{p.sessions_affected:>10d}"
                f"{p.recoveries:>11d}{p.recoveries_degraded:>10d}"
                f"{p.recovery_failures:>8d}"
                f"{100.0 * p.recovery_success_rate:>9.1f}%"
                f"{p.mean_mttr_ms:>10.1f}{p.mean_detection_ms:>11.1f}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Deterministic JSON of the whole sweep (the CI artifact)."""
        payload = {
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "driver": self.driver,
            "controlled": self.controlled,
            "base_crash_rate_per_min": BASE_CRASH_RATE_PER_MIN,
            "points": [p.as_dict() for p in self.points],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def trace_ndjson(self) -> str:
        """Concatenated span NDJSON across points ("" when tracing was off).

        Each point's spans carry their own trace trees, so the
        concatenation is itself a valid NDJSON trace — byte-identical
        across same-seed sim runs, like :meth:`to_json`.
        """
        return "".join(point.trace_ndjson for point in self.points)


def chaos_fault_schedule(
    seed: int, horizon_s: float, fault_multiplier: float
) -> FaultSchedule:
    """The sweep's seeded storm over the injection window."""
    return random_fault_schedule(
        seed=seed,
        horizon_s=horizon_s * INJECTION_WINDOW,
        crash_targets=CRASH_TARGETS,
        link_pairs=LINK_PAIRS,
        pressure_targets=PRESSURE_TARGETS,
        crash_rate_per_min=BASE_CRASH_RATE_PER_MIN * fault_multiplier,
        link_rate_per_min=BASE_LINK_RATE_PER_MIN * fault_multiplier,
        pressure_rate_per_min=BASE_PRESSURE_RATE_PER_MIN * fault_multiplier,
    )


def _scaled(schedule: FaultSchedule, scale: float) -> FaultSchedule:
    """Compress a schedule's times for wall-clock runs."""
    if scale == 1.0:
        return schedule
    return FaultSchedule.of(
        *(
            dataclasses.replace(
                spec, at_s=spec.at_s * scale, duration_s=spec.duration_s * scale
            )
            for spec in schedule
        )
    )


def run_chaos_once(
    fault_multiplier: float,
    seed: int = 42,
    horizon_s: float = 300.0,
    driver: str = "sim",
    time_scale: Optional[float] = None,
    heartbeat_interval_s: float = 2.0,
    suspicion_threshold: float = 3.0,
    policy: Optional[RecoveryPolicy] = None,
    trace: bool = False,
    controlled: bool = False,
    control_policy: Optional[ControlPolicy] = None,
) -> ChaosSweepPoint:
    """Run one seeded fault storm at ``fault_multiplier`` × the base rates.

    With ``controlled=True`` a :class:`~repro.control.controller.QoSController`
    runs alongside the reactive stack, watching the detector's φ-accrual
    trends and pre-emptively evacuating sessions off silence-trending
    devices *before* the detector's suspicion verdict — the reactive
    :class:`RecoveryManager` still owns every confirmed incident. Control
    counters share the recovery registry under ``control.*`` names, so
    ``metrics_json`` stays byte-identical per seed in both modes.

    Builds a fresh testbed per call. Under ``driver="sim"`` everything runs
    in logical time and repeated calls with identical arguments produce
    byte-identical metrics JSON. Under ``driver="thread"`` the same harness
    runs on ``threading.Timer`` callbacks with all times compressed by
    ``time_scale`` (default 1/20), so a 60-second storm takes ~3 wall
    seconds.

    With ``trace=True`` the whole storm runs under a scheduler-clocked
    :class:`~repro.observability.tracing.Tracer` with a ``run.chaos`` root
    span; the NDJSON export lands in ``ChaosSweepPoint.trace_ndjson``
    (byte-identical per seed under the sim driver).
    """
    if fault_multiplier < 0:
        raise ValueError("fault multiplier cannot be negative")
    if driver not in ("sim", "thread"):
        raise ValueError(f"unknown driver {driver!r}")
    scale = time_scale if time_scale is not None else (
        1.0 if driver == "sim" else 0.05
    )

    simulator: Optional[Simulator] = None
    if driver == "sim":
        simulator = Simulator()
        scheduler = SimScheduler(simulator)
    else:
        scheduler = WallClockScheduler()
    tracer: Optional[Tracer] = Tracer(scheduler) if trace else None
    with ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(activated(tracer))
            stack.enter_context(
                tracer.span(
                    "run.chaos",
                    fault_multiplier=fault_multiplier,
                    seed=seed,
                    driver=driver,
                )
            )
        testbed = build_audio_testbed(clock=scheduler.clock())
        ledger = ReservationLedger(testbed.server)
        testbed.configurator.ledger = ledger

        policy = policy or RecoveryPolicy(
            max_attempts=4,
            backoff_base_s=1.0 * scale,
            backoff_factor=2.0,
            max_backoff_s=8.0 * scale,
        )
        if controlled and control_policy is None:
            # Match the run's compressed timescale so thread-driver
            # storms see the same tick/heartbeat ratio as sim ones.
            control_policy = ControlPolicy(
                tick_interval_s=1.0 * scale, window_s=30.0 * scale
            )
        recovery = RecoveryStack(
            testbed,
            scheduler,
            heartbeat_interval_s=heartbeat_interval_s * scale,
            suspicion_threshold=suspicion_threshold,
            policy=policy,
            ladder=audio_degradation_ladder(),
            faults=_scaled(
                chaos_fault_schedule(seed, horizon_s, fault_multiplier), scale
            ),
            control_policy=control_policy if controlled else None,
        )

        sessions = []
        for client in SESSION_CLIENTS:
            session = testbed.configurator.create_session(
                audio_request(testbed, client), user_id=f"user-{client}"
            )
            record = session.start(label=f"start:{client}", skip_downloads=True)
            if not record.success:
                raise AssertionError(
                    f"baseline session on {client!r} did not admit"
                )
            sessions.append(session)

        recovery.start(horizon_s * scale)
        if simulator is not None:
            simulator.run_until(horizon_s * scale + recovery.drain_s + 1.0)
        else:
            time.sleep(horizon_s * scale + recovery.drain_s + 0.2)

        recovery.stop()
        if isinstance(scheduler, WallClockScheduler):
            scheduler.close()
        for session in sessions:
            session.stop()
        audit_or_raise(ledger, "chaos run")

    metrics = recovery.metrics

    def _mean(stage: str) -> float:
        summary = metrics.stage(stage).summary()
        return float(summary.get("mean", 0.0))

    metrics_json = metrics.to_json(
        extra={
            "fault_multiplier": fault_multiplier,
            "seed": seed,
            "horizon_s": horizon_s,
            "driver": driver,
            "controlled": controlled,
        }
    )

    def _control_count(name: str) -> int:
        return metrics.registry.counter(f"control.{name}").value if controlled else 0

    control_repair = (
        metrics.registry.histogram("control.time_to_repair_ms").summary()
        if controlled
        else {}
    )
    return ChaosSweepPoint(
        fault_multiplier=fault_multiplier,
        faults_injected=metrics.count("faults_injected"),
        crashes=metrics.count("crash_faults"),
        suspicions=metrics.count("suspicions"),
        sessions_affected=metrics.count("sessions_affected"),
        recoveries=metrics.count("recoveries"),
        recoveries_degraded=metrics.count("recoveries_degraded"),
        recovery_failures=metrics.count("recovery_failures"),
        recovery_success_rate=metrics.recovery_success_rate(),
        mean_detection_ms=_mean("detection_ms"),
        mean_mttr_ms=_mean("mttr_ms"),
        mean_interruption_ms=_mean("interruption_ms"),
        reports=tuple(report.to_dict() for report in recovery.manager.reports),
        metrics_json=metrics_json,
        trace_ndjson=tracer.export_ndjson() if tracer is not None else "",
        controlled=controlled,
        control_evacuations=_control_count("evacuations"),
        control_sessions_moved=_control_count("sessions_moved"),
        control_evacuation_reverts=_control_count("evacuation_reverted"),
        mean_control_repair_ms=float(control_repair.get("mean", 0.0)),
    )


def run_chaos_sweep(
    multipliers: Sequence[float] = (0.5, 1.0, 2.0, 4.0),
    seed: int = 42,
    horizon_s: float = 300.0,
    driver: str = "sim",
    controlled: bool = False,
    **kwargs,
) -> ChaosSweepResult:
    """Run :func:`run_chaos_once` across fault-rate multipliers."""
    result = ChaosSweepResult(
        seed=seed, horizon_s=horizon_s, driver=driver, controlled=controlled
    )
    for multiplier in multipliers:
        result.points.append(
            run_chaos_once(
                multiplier,
                seed=seed,
                horizon_s=horizon_s,
                driver=driver,
                controlled=controlled,
                **kwargs,
            )
        )
    return result
