"""Throughput scaling of the sharded serving cluster (serving extension).

The server sweep measures one domain under overload; this sweep measures
how the :class:`~repro.server.cluster.DomainCluster` spreads the same
offered load across 1, 2, 4, … shards. Each shard fronts its own audio
testbed (its own devices, network and ledger), one arrival trace per
(seed, multiplier) is replayed against every shard count, and the merged
:class:`~repro.server.cluster.ClusterMetrics` report says what the cluster
did with it: admitted, overflowed to a sibling, or finally shed.

The expected shape is *linear relief*: at a fixed offered load, adding
shards drives the whole-cluster shed rate down (more hardware, same
traffic) while overflow patches the imbalance consistent hashing leaves
behind. Under the sim driver the sweep is byte-deterministic per seed;
the thread driver runs one real worker pool per shard and is used by the
stress tests to prove the ledgers stay consistent under genuine
cross-shard interleaving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.control.controller import ControlPolicy
from repro.experiments.server_sweep import (
    BASE_RATE_PER_S,
    CLIENT_CYCLE,
    audio_degradation_ladder,
)
from repro.observability.metrics import MetricsRegistry
from repro.runtime.clock import SimScheduler
from repro.runtime.degradation import DegradationLadder
from repro.server.cluster import DomainCluster, make_router
from repro.server.drivers import (
    SimulatedServerDriver,
    sim_replay,
    thread_burst,
)
from repro.server.service import BatchPolicy, ServerRequest
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import arrival_trace


@dataclass(frozen=True)
class ClusterSweepPoint:
    """One (shard count × multiplier) cell of the sweep."""

    shards: int
    multiplier: float
    offered_rate_per_s: float
    submitted: int
    admitted: int
    degraded: int
    shed_final: int
    failed: int
    overflow_attempts: int
    overflow_rescued: int
    shed_rate: float
    throughput_per_min: float
    p50_total_ms: float
    p99_total_ms: float
    metrics_json: str
    #: NDJSON span export when the run was traced ("" otherwise); kept out
    #: of ``as_dict`` so the sweep JSON artifact is trace-independent.
    trace_ndjson: str = ""
    controlled: bool = False
    control_forecasts: int = 0
    control_actuations: int = 0
    control_reverts: int = 0
    control_rebalanced: int = 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "shards": self.shards,
            "multiplier": self.multiplier,
            "offered_rate_per_s": round(self.offered_rate_per_s, 6),
            "submitted": self.submitted,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "shed_final": self.shed_final,
            "failed": self.failed,
            "overflow_attempts": self.overflow_attempts,
            "overflow_rescued": self.overflow_rescued,
            "shed_rate": round(self.shed_rate, 6),
            "throughput_per_min": round(self.throughput_per_min, 6),
            "p50_total_ms": round(self.p50_total_ms, 6),
            "p99_total_ms": round(self.p99_total_ms, 6),
            "controlled": self.controlled,
            "control_forecasts": self.control_forecasts,
            "control_actuations": self.control_actuations,
            "control_reverts": self.control_reverts,
            "control_rebalanced": self.control_rebalanced,
            "metrics": json.loads(self.metrics_json),
        }


@dataclass
class ClusterSweepResult:
    """The whole sweep: shard counts × multipliers."""

    seed: int
    horizon_s: float
    router: str
    driver: str
    controlled: bool = False
    points: List[ClusterSweepPoint] = field(default_factory=list)

    def point(self, shards: int, multiplier: float) -> ClusterSweepPoint:
        for point in self.points:
            if point.shards == shards and point.multiplier == multiplier:
                return point
        raise KeyError(f"no point for {shards} shards at x{multiplier}")

    def format_table(self) -> str:
        header = (
            f"{'shards':>7}{'load x':>8}{'offered/s':>11}{'submitted':>11}"
            f"{'admitted':>10}{'overflow':>10}{'rescued':>9}{'shed':>7}"
            f"{'shed%':>8}{'thr/min':>9}"
        )
        lines = [
            "Sharded cluster under offered-load multipliers",
            f"(seed {self.seed}, horizon {self.horizon_s:g}s, "
            f"router {self.router}, driver {self.driver}, "
            f"base rate {BASE_RATE_PER_S:g}/s)",
            "",
            header,
        ]
        for p in self.points:
            lines.append(
                f"{p.shards:>7d}{p.multiplier:>8.2f}"
                f"{p.offered_rate_per_s:>11.3f}{p.submitted:>11d}"
                f"{p.admitted:>10d}{p.overflow_attempts:>10d}"
                f"{p.overflow_rescued:>9d}{p.shed_final:>7d}"
                f"{100.0 * p.shed_rate:>7.1f}%{p.throughput_per_min:>9.2f}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Deterministic JSON of the whole sweep (the CI artifact)."""
        payload = {
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "router": self.router,
            "driver": self.driver,
            "controlled": self.controlled,
            "base_rate_per_s": BASE_RATE_PER_S,
            "points": [p.as_dict() for p in self.points],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def trace_ndjson(self) -> str:
        """Concatenated span NDJSON across points ("" when tracing was off)."""
        return "".join(point.trace_ndjson for point in self.points)


def build_cluster(
    shard_count: int,
    router: str = "hash",
    queue_capacity: int = 16,
    clock=None,
    ladder: Optional[DegradationLadder] = None,
    registry: Optional[MetricsRegistry] = None,
    batched: bool = False,
    batch: Optional[BatchPolicy] = None,
):
    """One audio testbed + service per shard behind a shared registry.

    Returns ``(cluster, testbeds)``; requests must be composed against the
    testbed of the shard they land on, so the request factory resolves the
    testbed per shard at submit time via the cluster's router — see
    :func:`run_cluster_once`. ``batched`` chooses the shards' chunk
    policy (``batch``, default :class:`BatchPolicy()`, or one request
    per flush).
    """
    testbeds = [build_audio_testbed() for _ in range(shard_count)]
    cluster = DomainCluster.build(
        [testbed.configurator for testbed in testbeds],
        router=make_router(router, shard_count),
        registry=registry,
        batched=batched,
        batch=batch,
        ladder=ladder or audio_degradation_ladder(),
        queue_capacity=queue_capacity,
        clock=clock,
        skip_downloads=True,
    )
    return cluster, testbeds


def run_cluster_once(
    shard_count: int,
    multiplier: float,
    seed: int = 42,
    horizon_s: float = 300.0,
    mean_duration_s: float = 30.0,
    queue_capacity: int = 16,
    workers: int = 1,
    min_service_s: float = 1.5,
    deadline_s: Optional[float] = 20.0,
    router: str = "hash",
    trace: bool = False,
    batched: bool = False,
    batch: Optional[BatchPolicy] = None,
    controlled: bool = False,
    control_policy: Optional[ControlPolicy] = None,
) -> ClusterSweepPoint:
    """Replay one seeded trace through a ``shard_count``-shard sim cluster.

    Fresh testbeds, simulator and cluster per call: repeated calls with
    identical arguments produce byte-identical metrics JSON (and, with
    ``trace=True``, byte-identical span NDJSON under a ``run.cluster_sweep``
    root) — batched or not, controlled or not. With ``controlled=True`` a
    :class:`~repro.control.controller.QoSController` ticks on the same
    simulator for the arrival horizon, so proactive degradation, router
    steering and queue rebalancing are logical-time events inside the
    replay.
    """
    if shard_count < 1:
        raise ValueError("need at least one shard")
    if multiplier <= 0:
        raise ValueError("load multiplier must be positive")
    simulator = Simulator()
    sim_clock = SimulatedServerDriver.clock(simulator)
    registry = MetricsRegistry(clock=sim_clock if controlled else None)
    cluster, testbeds = build_cluster(
        shard_count,
        router=router,
        queue_capacity=queue_capacity,
        clock=sim_clock,
        registry=registry,
        batched=batched,
        batch=batch,
    )
    controller = None
    if controlled:
        controller = cluster.attach_controller(
            SimScheduler(simulator), policy=control_policy
        )
    driver = SimulatedServerDriver(
        cluster, simulator, workers=workers, min_service_s=min_service_s
    )
    arrivals = arrival_trace(
        seed=seed,
        rate_per_s=BASE_RATE_PER_S * multiplier,
        horizon_s=horizon_s,
        mean_duration_s=mean_duration_s,
        duration_bounds_s=(5.0, 120.0),
    )

    # The composition must target the shard that serves it (each shard is
    # its own domain), but devices/registries are identical across shards,
    # so one representative testbed supplies the request; what matters for
    # placement is that the shard's own configurator deploys it.
    def to_request(event) -> ServerRequest:
        client = CLIENT_CYCLE[event.request_id % len(CLIENT_CYCLE)]
        return ServerRequest(
            request_id=f"req-{event.request_id}",
            composition=audio_request(testbeds[0], client),
            priority=event.priority,
            deadline_s=deadline_s,
            duration_s=event.duration_s,
            user_id=f"user-{event.request_id % 97}",
        )

    root_span = (
        "run.cluster_sweep",
        dict(
            shards=shard_count,
            multiplier=multiplier,
            seed=seed,
            horizon_s=horizon_s,
        ),
    )
    trace_ndjson = sim_replay(
        driver,
        arrivals,
        to_request,
        "cluster sweep",
        root_span=root_span if trace else None,
        setup=controller and partial(controller.start, horizon_s=horizon_s),
        teardown=controller and controller.stop,
    )

    snapshot = cluster.metrics.snapshot()
    whole = snapshot["cluster"]
    routing = snapshot["routing"]
    offered = arrivals.offered_rate_per_s()
    metrics_json = cluster.metrics.to_json(
        extra={
            "shard_count": shard_count,
            "multiplier": multiplier,
            "offered_rate_per_s": round(offered, 6),
            "seed": seed,
            "horizon_s": horizon_s,
            "controlled": controlled,
        }
    )
    submitted = whole["submitted"]
    admitted = whole["admitted"]
    return ClusterSweepPoint(
        shards=shard_count,
        multiplier=multiplier,
        offered_rate_per_s=offered,
        submitted=submitted,
        admitted=admitted,
        degraded=whole["degraded"],
        shed_final=whole["shed_final"],
        failed=whole["failed"],
        overflow_attempts=routing["overflow_attempts"],
        overflow_rescued=routing["overflow_rescued"],
        shed_rate=whole["derived"]["shed_rate"],
        throughput_per_min=60.0 * admitted / horizon_s if horizon_s else 0.0,
        p50_total_ms=whole["latency"]["total_ms"].get("p50", 0.0),
        p99_total_ms=whole["latency"]["total_ms"].get("p99", 0.0),
        metrics_json=metrics_json,
        trace_ndjson=trace_ndjson,
        controlled=controlled,
        control_forecasts=registry.counter("control.forecasts").value,
        control_actuations=registry.counter("control.actuations").value,
        control_reverts=registry.counter("control.reverts").value,
        control_rebalanced=registry.counter("control.rebalanced").value,
    )


def run_cluster_thread_once(
    shard_count: int,
    request_count: int = 120,
    workers_per_shard: int = 4,
    queue_capacity: int = 16,
    router: str = "hash",
    timeout_s: float = 60.0,
    batched: bool = False,
    batch: Optional[BatchPolicy] = None,
) -> Dict[str, object]:
    """Burst-submit ``request_count`` requests at a real thread cluster.

    Runs :func:`~repro.server.drivers.thread_burst`, which raises when the
    pools do not drain within ``timeout_s`` or a ledger audits dirty, and
    returns the merged snapshot (``drained`` is always true). Dispositions
    are timing-dependent — only the invariants (no over-booking, every
    request gets exactly one final disposition) and the relative
    shed-rate ordering across shard counts are meaningful.
    """
    cluster, testbeds = build_cluster(
        shard_count,
        router=router,
        queue_capacity=queue_capacity,
        batched=batched,
        batch=batch,
    )
    requests = (
        ServerRequest(
            request_id=f"req-{index}",
            composition=audio_request(
                testbeds[0], CLIENT_CYCLE[index % len(CLIENT_CYCLE)]
            ),
            user_id=f"user-{index % 31}",
        )
        for index in range(request_count)
    )
    thread_burst(
        cluster, requests, workers_per_shard, timeout_s, "cluster thread burst"
    )
    snapshot = cluster.metrics.snapshot()
    return {
        "drained": True,
        "audit": cluster.audit(),
        "snapshot": snapshot,
        "shed_rate": snapshot["cluster"]["derived"]["shed_rate"],
    }


def run_cluster_sweep(
    shard_counts: Sequence[int] = (1, 2, 4),
    multipliers: Sequence[float] = (1.0, 2.0, 4.0),
    seed: int = 42,
    horizon_s: float = 300.0,
    router: str = "hash",
    trace: bool = False,
    batched: bool = False,
    batch: Optional[BatchPolicy] = None,
    controlled: bool = False,
    control_policy: Optional[ControlPolicy] = None,
    **kwargs,
) -> ClusterSweepResult:
    """Run :func:`run_cluster_once` across shard counts × multipliers."""
    result = ClusterSweepResult(
        seed=seed,
        horizon_s=horizon_s,
        router=router,
        driver="sim-batched" if batched else "sim",
        controlled=controlled,
    )
    for shard_count in shard_counts:
        for multiplier in multipliers:
            result.points.append(
                run_cluster_once(
                    shard_count,
                    multiplier,
                    seed=seed,
                    horizon_s=horizon_s,
                    router=router,
                    trace=trace,
                    batched=batched,
                    batch=batch,
                    controlled=controlled,
                    control_policy=control_policy,
                    **kwargs,
                )
            )
    return result
