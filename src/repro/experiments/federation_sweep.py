"""Federated multi-cluster serving under hot-spot load (federation tier).

The ``audio_lab`` scenario swept over shard counts measures one smart
space's shard pool; this sweep measures what digest-routed escalation buys *across* spaces. Each member
cluster is a full :class:`~repro.server.cluster.DomainCluster` (its own
testbeds, registries, ledgers and metrics namespace); arrivals follow a
hot-spot mix — a configurable fraction of all traffic homes on
``cluster0`` — and a seeded fraction of admitted sessions roams
mid-stream to a sibling cluster through the cross-cluster
:class:`~repro.federation.migration.SessionMigrator`.

The expected shape: with escalation on, the hot cluster sheds into its
siblings' headroom instead of onto the floor, so a federation of N
clusters sheds measurably less than N isolated clusters under the same
offered load (the `BENCH_federation.json` claim). Under the sim driver
the sweep is byte-deterministic per seed — arrivals, home choice, roam
choice and migration timing all come from per-request seeded RNG streams.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.audio_on_demand import (
    BASE_RATE_PER_S,
    CLIENT_CYCLE,
    AudioTestbed,
    audio_request,
    build_audio_cluster,
)
from repro.federation.migration import MigrationSchedule
from repro.federation.tier import (
    FederatedRequest,
    FederationMember,
    FederationTier,
)
from repro.observability.metrics import MetricsRegistry
from repro.server.drivers import (
    SimulatedServerDriver,
    sim_replay,
    thread_burst,
)
from repro.server.service import ServerRequest
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import ArrivalEvent, arrival_trace

#: Fraction of arrivals homed on ``cluster0`` (the hot spot); the
#: remainder spreads uniformly over the sibling clusters.
HOT_SPOT_WEIGHT = 0.6

#: The audio ladder's deepest rung (economy level demand scale) — the
#: member digests' ladder-headroom denominator.
AUDIO_MIN_DEMAND_SCALE = 0.45


def build_federation(
    cluster_count: int,
    shards_per_cluster: int = 1,
    queue_capacity: int = 16,
    clock=None,
    escalation: bool = True,
    headroom_floor: float = 0.15,
    digest_cadence: int = 1,
) -> Tuple[FederationTier, Dict[str, List[AudioTestbed]]]:
    """N audio clusters under one federation tier.

    Each member gets its *own* :class:`MetricsRegistry` (the cluster
    namespace is per-shard, so two members sharing a registry would alias
    each other's counters) while the tier keeps a separate registry for
    the ``federation.*`` series. Returns ``(tier, testbeds_by_member)``;
    compositions must be built against the member that serves them — see
    the request factory in :func:`run_federation_once`.
    """
    if cluster_count < 1:
        raise ValueError("need at least one member cluster")
    members: List[FederationMember] = []
    testbeds_by_member: Dict[str, List[AudioTestbed]] = {}
    for index in range(cluster_count):
        cluster, testbeds = build_audio_cluster(
            shards_per_cluster,
            queue_capacity=queue_capacity,
            clock=clock,
            registry=MetricsRegistry(),
        )
        name = f"cluster{index}"
        members.append(
            FederationMember(
                name, cluster, min_demand_scale=AUDIO_MIN_DEMAND_SCALE
            )
        )
        testbeds_by_member[name] = testbeds
    tier = FederationTier(
        members,
        escalation=escalation,
        headroom_floor=headroom_floor,
        digest_cadence=digest_cadence,
    )
    return tier, testbeds_by_member


def _home_for(event: ArrivalEvent, seed: int, cluster_count: int) -> str:
    """Seeded hot-spot home choice (cross-run deterministic)."""
    if cluster_count == 1:
        return "cluster0"
    rng = random.Random(f"{seed}:home:{event.request_id}")
    if rng.random() < HOT_SPOT_WEIGHT:
        return "cluster0"
    return f"cluster{rng.randrange(1, cluster_count)}"


@dataclass(frozen=True)
class FederationSweepPoint:
    """One (cluster count × multiplier × roam rate) cell of the sweep."""

    clusters: int
    multiplier: float
    roam_rate: float
    escalation: bool
    offered_rate_per_s: float
    submitted: int
    admitted: int
    degraded: int
    failed: int
    shed_final: int
    escalations: int
    escalation_rescued: int
    migrations_attempted: int
    migrations_committed: int
    migrations_rolled_back: int
    migration_p50_ms: float
    migration_p95_ms: float
    shed_rate: float
    metrics_json: str
    #: NDJSON span export when the run was traced ("" otherwise); kept out
    #: of ``as_dict`` so the sweep JSON artifact is trace-independent.
    trace_ndjson: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "clusters": self.clusters,
            "multiplier": self.multiplier,
            "roam_rate": self.roam_rate,
            "escalation": self.escalation,
            "offered_rate_per_s": round(self.offered_rate_per_s, 6),
            "submitted": self.submitted,
            "admitted": self.admitted,
            "degraded": self.degraded,
            "failed": self.failed,
            "shed_final": self.shed_final,
            "escalations": self.escalations,
            "escalation_rescued": self.escalation_rescued,
            "migrations_attempted": self.migrations_attempted,
            "migrations_committed": self.migrations_committed,
            "migrations_rolled_back": self.migrations_rolled_back,
            "migration_p50_ms": round(self.migration_p50_ms, 6),
            "migration_p95_ms": round(self.migration_p95_ms, 6),
            "shed_rate": round(self.shed_rate, 6),
            "metrics": json.loads(self.metrics_json),
        }


@dataclass
class FederationSweepResult:
    """The whole sweep: cluster counts × multipliers × roam rates."""

    seed: int
    horizon_s: float
    driver: str
    points: List[FederationSweepPoint] = field(default_factory=list)

    def point(
        self, clusters: int, multiplier: float, roam_rate: float
    ) -> FederationSweepPoint:
        for point in self.points:
            if (
                point.clusters == clusters
                and point.multiplier == multiplier
                and point.roam_rate == roam_rate
            ):
                return point
        raise KeyError(
            f"no point for {clusters} clusters at x{multiplier} "
            f"roam {roam_rate}"
        )

    def format_table(self) -> str:
        header = (
            f"{'clusters':>9}{'load x':>8}{'roam':>6}{'offered/s':>11}"
            f"{'submitted':>11}{'admitted':>10}{'escal':>7}{'rescued':>9}"
            f"{'migr':>6}{'shed':>7}{'shed%':>8}"
        )
        lines = [
            "Federated clusters under hot-spot offered-load multipliers",
            f"(seed {self.seed}, horizon {self.horizon_s:g}s, "
            f"driver {self.driver}, base rate {BASE_RATE_PER_S:g}/s per "
            f"cluster, hot-spot weight {HOT_SPOT_WEIGHT:g})",
            "",
            header,
        ]
        for p in self.points:
            lines.append(
                f"{p.clusters:>9d}{p.multiplier:>8.2f}{p.roam_rate:>6.2f}"
                f"{p.offered_rate_per_s:>11.3f}{p.submitted:>11d}"
                f"{p.admitted:>10d}{p.escalations:>7d}"
                f"{p.escalation_rescued:>9d}{p.migrations_committed:>6d}"
                f"{p.shed_final:>7d}{100.0 * p.shed_rate:>7.1f}%"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        """Deterministic JSON of the whole sweep (the CI artifact)."""
        payload = {
            "seed": self.seed,
            "horizon_s": self.horizon_s,
            "driver": self.driver,
            "base_rate_per_s": BASE_RATE_PER_S,
            "hot_spot_weight": HOT_SPOT_WEIGHT,
            "points": [p.as_dict() for p in self.points],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def trace_ndjson(self) -> str:
        """Concatenated span NDJSON across points ("" when tracing was off)."""
        return "".join(point.trace_ndjson for point in self.points)


def run_federation_once(
    cluster_count: int,
    multiplier: float,
    roam_rate: float = 0.0,
    seed: int = 42,
    horizon_s: float = 300.0,
    mean_duration_s: float = 30.0,
    shards_per_cluster: int = 1,
    queue_capacity: int = 16,
    workers: int = 1,
    min_service_s: float = 1.5,
    deadline_s: Optional[float] = 20.0,
    escalation: bool = True,
    trace: bool = False,
) -> FederationSweepPoint:
    """Replay one seeded hot-spot trace through a federation.

    Fresh testbeds, simulator and tier per call: repeated calls with
    identical arguments produce byte-identical metrics JSON (and, with
    ``trace=True``, byte-identical span NDJSON under a
    ``run.federation_sweep`` root). ``escalation=False`` degrades the
    federation to isolated clusters — the bench baseline.
    """
    if cluster_count < 1:
        raise ValueError("need at least one member cluster")
    if multiplier <= 0:
        raise ValueError("load multiplier must be positive")
    if not 0.0 <= roam_rate <= 1.0:
        raise ValueError("roam rate must be in [0, 1]")
    simulator = Simulator()
    tier, testbeds = build_federation(
        cluster_count,
        shards_per_cluster=shards_per_cluster,
        queue_capacity=queue_capacity,
        clock=SimulatedServerDriver.clock(simulator),
        escalation=escalation,
    )
    driver = SimulatedServerDriver(
        tier, simulator, workers=workers, min_service_s=min_service_s
    )
    roams = MigrationSchedule(tier, simulator)
    # The *total* offered load scales with federation size, so isolated
    # and federated runs of the same (count, multiplier) are comparable.
    arrivals = arrival_trace(
        seed=seed,
        rate_per_s=BASE_RATE_PER_S * multiplier * cluster_count,
        horizon_s=horizon_s,
        mean_duration_s=mean_duration_s,
        duration_bounds_s=(5.0, 120.0),
    )

    def to_request(event: ArrivalEvent) -> FederatedRequest:
        client = CLIENT_CYCLE[event.request_id % len(CLIENT_CYCLE)]
        home = _home_for(event, seed, cluster_count)

        def make(member: FederationMember) -> ServerRequest:
            # Decentralized composition: the request is composed against
            # the serving member's own testbed, never the home's.
            return ServerRequest(
                request_id=f"req-{event.request_id}",
                composition=audio_request(testbeds[member.name][0], client),
                priority=event.priority,
                deadline_s=deadline_s,
                duration_s=event.duration_s,
                user_id=f"user-{event.request_id % 97}",
            )

        return FederatedRequest(
            request_id=f"req-{event.request_id}", home=home, make_request=make
        )

    if roam_rate > 0.0 and cluster_count > 1:
        for event in arrivals:
            rng = random.Random(f"{seed}:roam:{event.request_id}")
            if rng.random() >= roam_rate:
                continue
            home = _home_for(event, seed, cluster_count)
            siblings = [
                f"cluster{i}" for i in range(cluster_count) if f"cluster{i}" != home
            ]
            destination = siblings[rng.randrange(len(siblings))]
            device = CLIENT_CYCLE[(event.request_id + 1) % len(CLIENT_CYCLE)]
            # Mid-stream: late enough to be admitted, early enough that
            # long sessions are still running; sessions already gone by
            # then drop the roam hint (a stale prediction).
            roams.schedule(
                event.arrival_s + 0.5 * event.duration_s,
                f"req-{event.request_id}",
                destination,
                device,
            )
    root_span = (
        "run.federation_sweep",
        dict(
            clusters=cluster_count,
            multiplier=multiplier,
            roam_rate=roam_rate,
            seed=seed,
            horizon_s=horizon_s,
        ),
    )
    trace_ndjson = sim_replay(
        driver,
        arrivals,
        to_request,
        "federation sweep",
        root_span=root_span if trace else None,
    )

    snapshot = tier.metrics.snapshot()
    whole = snapshot["federation"]
    routing = snapshot["routing"]
    migration = snapshot["migration"]
    offered = arrivals.offered_rate_per_s()
    metrics_json = tier.metrics.to_json(
        extra={
            "clusters": cluster_count,
            "multiplier": multiplier,
            "roam_rate": roam_rate,
            "offered_rate_per_s": round(offered, 6),
            "seed": seed,
            "horizon_s": horizon_s,
        }
    )
    handoff = tier.registry.histogram("federation.migration_ms")
    return FederationSweepPoint(
        clusters=cluster_count,
        multiplier=multiplier,
        roam_rate=roam_rate,
        escalation=escalation,
        offered_rate_per_s=offered,
        submitted=whole["submitted"],
        admitted=whole["admitted"],
        degraded=whole["degraded"],
        failed=whole["failed"],
        shed_final=whole["shed_final"],
        escalations=routing["escalations"],
        escalation_rescued=routing["escalation_rescued"],
        migrations_attempted=migration["attempts"],
        migrations_committed=migration["committed"],
        migrations_rolled_back=migration["rolled_back"],
        migration_p50_ms=handoff.percentile(50) if handoff.count else 0.0,
        migration_p95_ms=handoff.percentile(95) if handoff.count else 0.0,
        shed_rate=whole["derived"]["shed_rate"],
        metrics_json=metrics_json,
        trace_ndjson=trace_ndjson,
    )


def run_federation_thread_once(
    cluster_count: int,
    request_count: int = 90,
    workers_per_shard: int = 2,
    shards_per_cluster: int = 1,
    queue_capacity: int = 16,
    timeout_s: float = 60.0,
) -> Dict[str, object]:
    """Burst-submit ``request_count`` requests at a real thread federation.

    Runs :func:`~repro.server.drivers.thread_burst`, which raises when the
    pools do not drain within ``timeout_s`` or a ledger audits dirty, and
    returns the federation snapshot (``drained`` is always true).
    Dispositions are timing-dependent — only the invariants matter here.
    """
    tier, testbeds = build_federation(
        cluster_count,
        shards_per_cluster=shards_per_cluster,
        queue_capacity=queue_capacity,
    )

    def federated(index: int) -> FederatedRequest:
        client = CLIENT_CYCLE[index % len(CLIENT_CYCLE)]
        home = (
            "cluster0"
            if cluster_count == 1 or index % 5 < 3
            else f"cluster{1 + index % (cluster_count - 1)}"
        )

        def make(member: FederationMember) -> ServerRequest:
            return ServerRequest(
                request_id=f"req-{index}",
                composition=audio_request(testbeds[member.name][0], client),
                user_id=f"user-{index % 31}",
            )

        return FederatedRequest(
            request_id=f"req-{index}", home=home, make_request=make
        )

    thread_burst(
        tier,
        (federated(index) for index in range(request_count)),
        workers_per_shard,
        timeout_s,
        "federation thread burst",
    )
    snapshot = tier.metrics.snapshot()
    return {
        "drained": True,
        "audit": tier.audit(),
        "snapshot": snapshot,
        "shed_rate": snapshot["federation"]["derived"]["shed_rate"],
    }


def run_federation_sweep(
    cluster_counts: Sequence[int] = (1, 3),
    multipliers: Sequence[float] = (1.0, 2.0),
    roam_rates: Sequence[float] = (0.0, 0.2),
    seed: int = 42,
    horizon_s: float = 300.0,
    trace: bool = False,
    **kwargs,
) -> FederationSweepResult:
    """Run :func:`run_federation_once` across counts × loads × roam rates."""
    result = FederationSweepResult(
        seed=seed, horizon_s=horizon_s, driver="sim"
    )
    for cluster_count in cluster_counts:
        for multiplier in multipliers:
            for roam_rate in roam_rates:
                result.points.append(
                    run_federation_once(
                        cluster_count,
                        multiplier,
                        roam_rate=roam_rate,
                        seed=seed,
                        horizon_s=horizon_s,
                        trace=trace,
                        **kwargs,
                    )
                )
    return result
