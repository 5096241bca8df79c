"""The federation tier: digest-routed admission across member clusters.

:class:`FederationTier` fronts N :class:`~repro.server.cluster.DomainCluster`
members, each a distinct smart space with its own registry, topology and
shards. Routing is two-level and deliberately information-poor at the
top: the tier holds only the members' published
:class:`~repro.federation.digest.ClusterDigest` summaries, never their
registries. A :class:`FederatedRequest` carries a *request factory*
instead of a composed request, so whichever cluster admits it composes
against its own environment snapshot — decentralized composition.

Escalation mirrors the cluster layer's cross-shard overflow one level up:
a request whose home cluster has digest headroom is admitted locally;
otherwise (or when the home sheds anyway) digest-selected siblings are
tried best-headroom-first, with the home cluster as the last resort, and
only when every candidate sheds does the shed become final. All routing
decisions land in ``federation.*`` counters and spans on the tier's own
:class:`~repro.observability.metrics.MetricsRegistry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.federation.digest import ClusterDigest, DigestBoard
from repro.federation.fabric import FederationFabric
from repro.observability.metrics import MetricsRegistry, stable_round
from repro.observability.tracing import get_tracer
from repro.runtime.degradation import DegradationLadder
from repro.server.cluster import ClusterOutcome, DomainCluster, merged_latency
from repro.server.service import (
    DomainConfigurationService,
    RequestOutcome,
    RequestStatus,
    ServerRequest,
)


#: Final dispositions an escalated request is counted under.
ESCALATION_OUTCOMES = ("admitted", "degraded", "failed", "shed")


@dataclass(frozen=True)
class FederatedRequest:
    """One request presented to the federation front door.

    ``make_request`` builds the concrete :class:`ServerRequest` *for the
    member that will serve it* — composition inputs (client device,
    preferred devices) are resolved against the target cluster's own
    environment, so the tier never needs a member's registry to route.
    ``service_type`` is the coarse reachability key digests filter on.
    """

    request_id: str
    home: str
    make_request: Callable[["FederationMember"], ServerRequest]
    service_type: Optional[str] = None


class FederationMember:
    """One named cluster inside the federation.

    ``min_demand_scale`` is the deepest degradation rung the member's
    admission ladder offers (1.0 when it serves full-rate only); it feeds
    the digest's ladder headroom. The member computes its own digest from
    its own shards — the decentralized half of the digest protocol.
    """

    def __init__(
        self,
        name: str,
        cluster: DomainCluster,
        min_demand_scale: float = 1.0,
    ) -> None:
        if not name:
            raise ValueError("a federation member needs a name")
        if not 0.0 < min_demand_scale <= 1.0:
            raise ValueError("min_demand_scale must be in (0, 1]")
        self.name = name
        self.cluster = cluster
        self.min_demand_scale = min_demand_scale
        self._published_version: Optional[int] = None

    @classmethod
    def with_ladder(
        cls,
        name: str,
        cluster: DomainCluster,
        ladder: Optional[DegradationLadder],
    ) -> "FederationMember":
        """A member whose ladder headroom comes from its degradation ladder
        (full-rate only without one)."""
        if ladder is None:
            return cls(name, cluster)
        return cls(
            name,
            cluster,
            min_demand_scale=min(
                level.demand_scale for level in ladder.levels
            ),
        )

    def state_version(self) -> int:
        """Combined change counter across the member's shards.

        Sums each shard's queue, ledger and domain-membership versions —
        any admission, release, membership change or enqueue moves it, so
        digest staleness is measured in state changes, not wall time.
        """
        total = 0
        for shard in self.cluster.shards:
            total += (
                shard.queue.version
                + shard.ledger.version
                + shard.configurator.server.domain.membership_version
            )
        return total

    def service_types(self) -> Tuple[str, ...]:
        """Sorted union of the shards' advertised registry types."""
        types = set()
        for shard in self.cluster.shards:
            types.update(shard.configurator.server.domain.registry.service_types())
        return tuple(sorted(types))

    def digest(self) -> ClusterDigest:
        """Summarize the member's live state (computed, not cached)."""
        shards = self.cluster.shards
        queue_depth = sum(shard.queue.depth for shard in shards)
        queue_capacity = sum(shard.queue.capacity for shard in shards)
        utilization = max(shard.ledger.utilization() for shard in shards)
        load_score = sum(shard.load_score() for shard in shards) / len(shards)
        # load_score is queue occupancy + ledger utilization per shard,
        # each term in [0, 1]; headroom folds both into one [0, 1] signal.
        headroom = max(0.0, 1.0 - load_score / 2.0)
        return ClusterDigest(
            cluster=self.name,
            version=self.state_version(),
            shard_count=len(shards),
            queue_depth=queue_depth,
            queue_capacity=queue_capacity,
            utilization=utilization,
            load_score=load_score,
            headroom=headroom,
            ladder_headroom=min(1.0, headroom / self.min_demand_scale),
            service_types=self.service_types(),
        )

    def maybe_publish(self, board: DigestBoard, cadence: int = 1) -> bool:
        """Publish a fresh digest when the version counter has moved enough.

        Returns True when a digest was published. ``cadence`` is the
        minimum version-counter advance since the last publish — the knob
        trading digest freshness against publish traffic.
        """
        version = self.state_version()
        if (
            self._published_version is not None
            and version - self._published_version < cadence
        ):
            return False
        board.publish(self.digest())
        self._published_version = version
        return True


@dataclass
class FederationOutcome:
    """Where a federated request landed and what that cluster decided."""

    request_id: str
    home: str
    member: str
    placed: ClusterOutcome
    escalated: bool = False
    attempts: Tuple[str, ...] = ()

    @property
    def status(self) -> RequestStatus:
        return self.placed.outcome.status


class FederationTier:
    """N member clusters behind one digest-routed front door."""

    def __init__(
        self,
        members: Sequence[FederationMember],
        board: Optional[DigestBoard] = None,
        registry: Optional[MetricsRegistry] = None,
        fabric: Optional[FederationFabric] = None,
        headroom_floor: float = 0.15,
        digest_cadence: int = 1,
        escalation: bool = True,
    ) -> None:
        if not members:
            raise ValueError("federation needs at least one member cluster")
        names = [member.name for member in members]
        if len(set(names)) != len(names):
            raise ValueError("federation member names must be unique")
        if not 0.0 <= headroom_floor <= 1.0:
            raise ValueError("headroom_floor must be in [0, 1]")
        if digest_cadence < 1:
            raise ValueError("digest cadence must be at least 1")
        self.members: List[FederationMember] = list(members)
        self._by_name: Dict[str, FederationMember] = {
            member.name: member for member in self.members
        }
        self.board = board if board is not None else DigestBoard()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.fabric = fabric if fabric is not None else FederationFabric()
        self.headroom_floor = headroom_floor
        self.digest_cadence = digest_cadence
        self.escalation = escalation
        #: Escalated requests still in flight: not yet served, nor shed by
        #: every candidate. Set adds and discards are atomic and a request
        #: is served once, so thread-pool workers need no lock here.
        self._escalating: Set[str] = set()
        self._submitted = self.registry.counter("federation.submitted")
        self._local = self.registry.counter("federation.local")
        self._escalations = self.registry.counter("federation.escalations")
        self._escalation_attempts = self.registry.counter(
            "federation.escalation_attempts"
        )
        self._escalation_queued = self.registry.counter(
            "federation.escalation_queued"
        )
        self._escalation_reshed = self.registry.counter(
            "federation.escalation_reshed"
        )
        self._digest_publishes = self.registry.counter(
            "federation.digest_publishes"
        )
        self._escalation_outcomes = {
            status: self.registry.counter(f"federation.escalation_{status}")
            for status in ESCALATION_OUTCOMES
        }
        self._routed = {
            member.name: self.registry.counter(
                f"federation.member.{member.name}.routed"
            )
            for member in self.members
        }

    @property
    def member_count(self) -> int:
        return len(self.members)

    def member(self, name: str) -> FederationMember:
        """The member with the given name (KeyError when unknown)."""
        return self._by_name[name]

    # -- the digest protocol -------------------------------------------------------

    def publish_digests(self, force: bool = False) -> int:
        """Let every member republish on its version-counter cadence."""
        published = 0
        cadence = 1 if force else self.digest_cadence
        for member in self.members:
            if force:
                member._published_version = None
            if member.maybe_publish(self.board, cadence=cadence):
                published += 1
                self._digest_publishes.incr()
                with get_tracer().span(
                    "federation.digest_publish", cluster=member.name
                ) as span:
                    digest = self.board.get(member.name)
                    assert digest is not None
                    span.set("version", digest.version)
                    span.set("headroom", round(digest.headroom, 6))
        return published

    # -- the drain target ----------------------------------------------------------

    def drain_order(
        self,
        on_requeue: Optional[Callable[[DomainConfigurationService], None]] = None,
    ) -> List[DomainConfigurationService]:
        """Every member's shards, members in name order."""
        services: List[DomainConfigurationService] = []
        for name in sorted(self._by_name):
            services.extend(
                self._by_name[name].cluster.drain_order(on_requeue)
            )
        return services

    def place(
        self, request: FederatedRequest
    ) -> Tuple[RequestOutcome, Optional[DomainConfigurationService]]:
        """Submit; report the outcome and the shard that queued it."""
        routed = self.submit(request)
        placed = routed.placed
        if placed.outcome.status is RequestStatus.QUEUED:
            cluster = self._by_name[routed.member].cluster
            return placed.outcome, cluster.shards[placed.shard]
        return placed.outcome, None

    def served(self, outcome: RequestOutcome) -> None:
        """Count an escalated request's disposition as it is served."""
        if outcome.request_id in self._escalating:
            self._escalating.discard(outcome.request_id)
            self._escalation_outcomes[outcome.status.value].incr()

    # -- the front door ------------------------------------------------------------

    def submit(self, request: FederatedRequest) -> FederationOutcome:
        """Route a federated request: home when it has headroom, else escalate."""
        if request.home not in self._by_name:
            raise KeyError(f"unknown home cluster {request.home!r}")
        self._submitted.incr()
        with get_tracer().span(
            "federation.route",
            request_id=request.request_id,
            home=request.home,
        ) as span:
            self.publish_digests()
            order = self._candidate_order(request)
            span.set("candidates", ",".join(member.name for member in order))
            outcome = self._try_candidates(request, order)
            span.set("member", outcome.member)
            span.set("escalated", outcome.escalated)
            span.set("status", outcome.status.value)
        return outcome

    def _candidate_order(
        self, request: FederatedRequest
    ) -> List[FederationMember]:
        """Home first when its digest shows headroom; else siblings by digest.

        Siblings are filtered by coarse service-type reachability and
        ranked (best ladder headroom, then lowest queue occupancy, then
        name — fully deterministic). The home cluster is always in the
        order: first when healthy, last resort otherwise, so a federated
        submit can never do worse than an isolated one.
        """
        home = self._by_name[request.home]
        if not self.escalation or self.member_count == 1:
            return [home]
        home_digest = self.board.get(home.name)
        siblings = self._ranked_siblings(request, home)
        if home_digest is None or home_digest.headroom >= self.headroom_floor:
            return [home] + siblings
        return siblings + [home]

    def _ranked_siblings(
        self, request: FederatedRequest, home: FederationMember
    ) -> List[FederationMember]:
        ranked: List[Tuple[float, float, str]] = []
        for member in self.members:
            if member is home:
                continue
            digest = self.board.get(member.name)
            if digest is None or not digest.can_serve(request.service_type):
                continue
            ranked.append(
                (-digest.ladder_headroom, digest.occupancy, member.name)
            )
        ranked.sort()
        return [self._by_name[name] for _, _, name in ranked]

    def _try_candidates(
        self,
        request: FederatedRequest,
        order: Sequence[FederationMember],
    ) -> FederationOutcome:
        home = self._by_name[request.home]
        attempts: List[str] = []
        escalated = False
        placed: Optional[ClusterOutcome] = None
        served: FederationMember = home
        for member in order:
            if member is not home and not escalated:
                escalated = True
                self._escalations.incr()
                # In flight before the first sibling can queue it: a
                # worker may serve it before this submit returns.
                self._escalating.add(request.request_id)
            if attempts:
                self._escalation_attempts.incr()
            if member is not home:
                with get_tracer().span(
                    "federation.escalate",
                    request_id=request.request_id,
                    from_cluster=home.name,
                    to_cluster=member.name,
                ) as span:
                    placed = member.cluster.submit(request.make_request(member))
                    span.set("status", placed.outcome.status.value)
            else:
                placed = member.cluster.submit(request.make_request(member))
            served = member
            attempts.append(member.name)
            self._routed[member.name].incr()
            if placed.outcome.status is not RequestStatus.SHED:
                break
        assert placed is not None
        if not escalated:
            self._local.incr()
        elif placed.outcome.status is RequestStatus.SHED:
            self._escalation_reshed.incr()
            self._escalating.discard(request.request_id)
            self._escalation_outcomes["shed"].incr()
        else:
            self._escalation_queued.incr()
        return FederationOutcome(
            request_id=request.request_id,
            home=request.home,
            member=served.name,
            placed=placed,
            escalated=escalated,
            attempts=tuple(attempts),
        )

    # -- results -------------------------------------------------------------------

    def audit(self) -> List[str]:
        """Union of every member cluster's ledger audit, tagged by name."""
        problems: List[str] = []
        for member in self.members:
            problems.extend(
                f"{member.name}/{problem}" for problem in member.cluster.audit()
            )
        return problems

    @property
    def metrics(self) -> "FederationMetrics":
        return FederationMetrics(self)


class FederationMetrics:
    """Whole-federation view over the tier and member registries.

    Federation-level counters correct for escalation multi-submission the
    same way :class:`~repro.server.cluster.ClusterMetrics` corrects for
    cross-shard overflow: every extra attempt re-submitted one request to
    another cluster after a shed there or at home, so distinct submissions
    and final sheds subtract ``escalation_attempts``. Whole-federation
    percentiles are nearest-rank over the union of every member shard's
    samples.

    ``escalation_queued`` counts escalated requests a cluster *queued*,
    not requests it admitted; ``escalation_outcomes`` splits every
    decided escalated request by its disposition (admitted at full
    quality, degraded, failed or shed): a re-shed counts at submit, a
    queued one when a driver reports it served (:meth:`FederationTier.served`),
    so after a drain the four add up to ``escalations``.
    """

    def __init__(self, tier: FederationTier) -> None:
        self.tier = tier

    def snapshot(self) -> Dict[str, object]:
        registry = self.tier.registry
        members = {
            member.name: member.cluster.metrics.snapshot()
            for member in self.tier.members
        }
        extra_attempts = registry.counter(
            "federation.escalation_attempts"
        ).value
        submitted = registry.counter("federation.submitted").value
        admitted = sum(m["cluster"]["admitted"] for m in members.values())  # type: ignore[index]
        degraded = sum(m["cluster"]["degraded"] for m in members.values())  # type: ignore[index]
        failed = sum(m["cluster"]["failed"] for m in members.values())  # type: ignore[index]
        shed_members = sum(
            m["cluster"]["shed_final"] for m in members.values()  # type: ignore[index]
        )
        shed_final = shed_members - extra_attempts
        queued = registry.counter("federation.escalation_queued").value
        escalations = registry.counter("federation.escalations").value
        outcomes = {
            status: registry.counter(f"federation.escalation_{status}").value
            for status in ESCALATION_OUTCOMES
        }
        routing = {
            "local": registry.counter("federation.local").value,
            "escalations": escalations,
            "escalation_attempts": extra_attempts,
            "escalation_queued": queued,
            "escalation_outcomes": outcomes,
            "escalation_reshed": registry.counter(
                "federation.escalation_reshed"
            ).value,
            "digest_publishes": registry.counter(
                "federation.digest_publishes"
            ).value,
            "routed": {
                member.name: registry.counter(
                    f"federation.member.{member.name}.routed"
                ).value
                for member in self.tier.members
            },
        }
        migration = {
            "attempts": registry.counter("federation.migrations").value,
            "committed": registry.counter(
                "federation.migration_committed"
            ).value,
            "failed": registry.counter("federation.migration_failed").value,
            "rolled_back": registry.counter(
                "federation.migration_rolled_back"
            ).value,
            "handoff_ms": registry.histogram("federation.migration_ms").summary(),
        }
        derived = {
            "shed_rate": (
                stable_round(shed_final / submitted) if submitted else 0.0
            ),
            "admit_rate": (
                stable_round(admitted / submitted) if submitted else 0.0
            ),
            "escalation_queue_rate": (
                stable_round(queued / escalations) if escalations else 0.0
            ),
        }
        return {
            "federation": {
                "member_count": self.tier.member_count,
                "submitted": submitted,
                "admitted": admitted,
                "degraded": degraded,
                "failed": failed,
                "shed_final": shed_final,
                "conflict_retries": sum(
                    m["cluster"]["conflict_retries"] for m in members.values()  # type: ignore[index]
                ),
                "derived": derived,
                "latency": merged_latency(
                    shard
                    for member in self.tier.members
                    for shard in member.cluster.shards
                ),
            },
            "routing": routing,
            "migration": migration,
            "members": members,
        }

    def shed_rate(self) -> float:
        """Whole-federation final-shed fraction of distinct submissions."""
        snapshot = self.snapshot()
        return snapshot["federation"]["derived"]["shed_rate"]  # type: ignore[index]

    def to_json(self, extra: Optional[Dict[str, object]] = None) -> str:
        """Deterministic JSON serialization of :meth:`snapshot`."""
        payload = self.snapshot()
        if extra:
            payload = {**payload, **extra}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
