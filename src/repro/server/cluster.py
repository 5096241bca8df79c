"""The sharded multi-domain serving cluster.

One :class:`~repro.server.service.DomainConfigurationService` serves one
domain; the paper's ubiquitous-computing premise is many domains (office →
building → campus) serving many concurrent users. :class:`DomainCluster`
fronts N such services ("shards") behind a pluggable :class:`ShardRouter`:

- :class:`ConsistentHashRouter` — a hash ring over the shards (virtual
  nodes, deterministic SHA-1 digests, no process-seeded ``hash()``), so a
  given ``user_id`` lands on the same shard on every run and on every
  replay — session affinity;
- :class:`LeastLoadedRouter` — power-of-two-choices: two deterministic
  hash probes nominate candidate shards and the less-loaded one (queue
  occupancy + ledger utilization) wins, trading affinity for balance
  without ever scanning the whole cluster.

Cross-shard **overflow** mirrors federated discovery's local-miss
escalation: a request shed by its home shard for capacity reasons
(``queue_full``/``overload``) is retried once on the least-loaded sibling
before the shed becomes final.

All shards report into one shared
:class:`~repro.observability.metrics.MetricsRegistry` under
``cluster.shard<i>.*`` namespaces, the router emits ``cluster.route`` /
``cluster.overflow`` tracing spans, and :class:`ClusterMetrics` merges the
per-shard counters and raw latency samples into a whole-cluster JSON
report (nearest-rank percentiles over the union of samples, deterministic
serialization).
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.observability.metrics import (
    MetricsRegistry,
    stable_round,
    summarize_samples,
)
from repro.observability.tracing import get_tracer
from repro.runtime.session import ApplicationSession
from repro.server.batching import BatchingDomainService
from repro.server.metrics import COUNTER_NAMES, STAGE_NAMES, ServerMetrics
from repro.server.service import (
    UNBATCHED,
    BatchPolicy,
    DomainConfigurationService,
    RequestOutcome,
    RequestStatus,
    ServerRequest,
)

#: Shed reasons that mean "the home shard had no room", i.e. a sibling
#: might still have some. Deadline sheds and admission failures are not
#: capacity signals and never overflow.
OVERFLOW_REASONS = ("queue_full", "overload")


def _digest(key: str) -> int:
    """A deterministic 64-bit hash (Python's ``hash`` is process-seeded)."""
    return int.from_bytes(
        hashlib.sha1(key.encode("utf-8")).digest()[:8], "big"
    )


def shard_load(shard: DomainConfigurationService) -> float:
    """The routing load signal: queue occupancy plus ledger utilization.

    Both terms live in [0, 1], so the sum weighs "work waiting" and "work
    admitted" equally; an idle shard scores 0.0, a saturated one ~2.0.
    Delegates to the shard's version-memoized
    :meth:`~repro.server.service.DomainConfigurationService.load_score`,
    so repeated probes between state changes are O(1) instead of a
    device walk under the ledger lock.
    """
    return shard.load_score()


class ShardRouter:
    """Chooses a home shard for each request (pluggable policy)."""

    def route(
        self, request: ServerRequest, shards: Sequence[DomainConfigurationService]
    ) -> int:
        raise NotImplementedError

    @staticmethod
    def affinity_key(request: ServerRequest) -> str:
        """The routing key: user identity when known, else the request id."""
        return request.user_id or request.request_id


class ConsistentHashRouter(ShardRouter):
    """Session affinity via a consistent-hash ring with virtual nodes.

    Each shard owns ``replicas`` points on the ring; a request maps to the
    first point at or after its key's digest (wrapping). Adding or
    removing one shard therefore remaps only the keys in the arcs that
    shard owned, not the whole population.
    """

    def __init__(self, shard_count: int, replicas: int = 64) -> None:
        if shard_count < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one virtual node per shard")
        self.replicas = replicas
        points: List[Tuple[int, int]] = []
        for index in range(shard_count):
            for replica in range(replicas):
                points.append((_digest(f"shard-{index}#{replica}"), index))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def route(
        self, request: ServerRequest, shards: Sequence[DomainConfigurationService]
    ) -> int:
        position = bisect.bisect_right(self._hashes, _digest(self.affinity_key(request)))
        if position == len(self._hashes):
            position = 0
        return self._owners[position]


class LeastLoadedRouter(ShardRouter):
    """Power-of-two-choices with deterministic hash probes.

    Two independent digests of the affinity key nominate two candidate
    shards; the one with the lower :func:`shard_load` wins (ties go to the
    lower index). Using key-derived probes instead of an RNG keeps the
    sim driver's byte-identical-replay guarantee intact while preserving
    the load-balancing behaviour of classic power-of-two-choices.

    Per-shard **weights** multiply the load a probe sees: the control
    plane sets a weight above 1.0 on a shard with a standing overload
    forecast so probes steer away from it *before* its measured load
    catches up, and resets the weight when the forecast clears. Weight
    1.0 (the default) is neutral.
    """

    def __init__(self) -> None:
        self._weights: Dict[int, float] = {}

    def set_weight(self, shard_index: int, weight: float) -> None:
        """Penalize (>1.0) or favor (<1.0) one shard in probe comparisons."""
        if weight <= 0:
            raise ValueError("shard weight must be positive")
        if shard_index < 0:
            raise ValueError("shard index cannot be negative")
        if weight == 1.0:
            self._weights.pop(shard_index, None)
        else:
            self._weights[shard_index] = weight

    def weight(self, shard_index: int) -> float:
        """The shard's current probe weight (1.0 when unset)."""
        return self._weights.get(shard_index, 1.0)

    def clear_weights(self) -> None:
        """Restore every shard to the neutral weight (idempotent)."""
        self._weights.clear()

    def weighted_load(
        self, shards: Sequence[DomainConfigurationService], index: int
    ) -> float:
        return shard_load(shards[index]) * self.weight(index)

    def route(
        self, request: ServerRequest, shards: Sequence[DomainConfigurationService]
    ) -> int:
        key = self.affinity_key(request)
        first = _digest(key + "#probe-0") % len(shards)
        second = _digest(key + "#probe-1") % len(shards)
        if first == second:
            return first
        candidates = sorted((first, second))
        return min(
            candidates,
            key=lambda index: (self.weighted_load(shards, index), index),
        )


#: Router names, as scenario documents and the CLI spell them.
ROUTERS = ("hash", "least-loaded")


def make_router(name: str, shard_count: int) -> ShardRouter:
    """The router registered under ``name`` for ``shard_count`` shards."""
    if name == "hash":
        return ConsistentHashRouter(shard_count)
    if name == "least-loaded":
        return LeastLoadedRouter()
    raise ValueError(f"unknown router {name!r} (choose from {ROUTERS})")


@dataclass
class ClusterOutcome:
    """Where a request landed and what the serving shard decided.

    ``outcome`` is the submit-time disposition from the shard that kept
    the request (QUEUED, or the *final* SHED after overflow was tried);
    the eventual served outcome goes to whoever drains that shard.
    """

    request_id: str
    home_shard: int
    shard: int
    outcome: RequestOutcome
    overflowed: bool = False

    @property
    def status(self) -> RequestStatus:
        return self.outcome.status


class DomainCluster:
    """N domain-service shards behind one routing front door."""

    def __init__(
        self,
        shards: Sequence[DomainConfigurationService],
        router: Optional[ShardRouter] = None,
        registry: Optional[MetricsRegistry] = None,
        controller: Optional[object] = None,
    ) -> None:
        if not shards:
            raise ValueError("cluster needs at least one shard")
        self.shards: List[DomainConfigurationService] = list(shards)
        self.router = router or ConsistentHashRouter(len(self.shards))
        self.registry = registry if registry is not None else MetricsRegistry()
        #: The control-plane policy (a :class:`repro.control.ControlPolicy`)
        #: this cluster was configured with; :meth:`attach_controller`
        #: turns it into a live, ticking QoSController.
        self.control_policy = controller
        self.controller: Optional[object] = None
        #: Rebalance wake-up seam: the sim driver registers a callback
        #: (see :meth:`drain_order`) so a shard that receives adopted work
        #: mid-run gets dispatched (thread drivers wake via the queue
        #: condition instead).
        self.on_requeue: Optional[
            Callable[[DomainConfigurationService], None]
        ] = None
        self._submitted = self.registry.counter("cluster.submitted")
        self._shed_at_submit = self.registry.counter("cluster.shed_at_submit")
        self._overflow_attempts = self.registry.counter("cluster.overflow_attempts")
        self._overflow_rescued = self.registry.counter("cluster.overflow_rescued")
        self._overflow_reshed = self.registry.counter("cluster.overflow_reshed")
        self._routed = [
            self.registry.counter(f"cluster.shard{index}.routed")
            for index in range(len(self.shards))
        ]

    @classmethod
    def build(
        cls,
        configurators: Sequence[object],
        router: Optional[ShardRouter] = None,
        registry: Optional[MetricsRegistry] = None,
        batched: bool = False,
        batch: Optional[BatchPolicy] = None,
        controller: Optional[object] = None,
        **service_kwargs: object,
    ) -> "DomainCluster":
        """Construct one service per configurator, wired into one registry.

        Each shard's :class:`ServerMetrics` registers its instruments
        under ``cluster.shard<i>`` in the shared registry, so one
        registry snapshot covers the whole cluster. Every shard is a
        :class:`~repro.server.batching.BatchingDomainService`;
        ``batched`` only chooses its chunk policy — ``batch`` (default
        :class:`BatchPolicy()`) when true, one request per flush when
        false.
        """
        registry = registry if registry is not None else MetricsRegistry()
        policy = (batch or BatchPolicy()) if batched else UNBATCHED
        shards = [
            BatchingDomainService(
                configurator,  # type: ignore[arg-type]
                metrics=ServerMetrics(
                    registry=registry, namespace=f"cluster.shard{index}"
                ),
                batch=policy,
                **service_kwargs,  # type: ignore[arg-type]
            )
            for index, configurator in enumerate(configurators)
        ]
        return cls(
            shards, router=router, registry=registry, controller=controller
        )

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    # -- the control plane ---------------------------------------------------------

    def attach_controller(
        self, scheduler: object, policy: Optional[object] = None
    ) -> object:
        """Build the closed-loop QoS controller over this cluster.

        Uses the ``controller=`` policy the cluster was constructed with
        (or ``policy``, which overrides it); the caller owns the
        lifecycle — ``controller.start(horizon_s=...)`` /
        ``controller.stop()`` — because only the harness knows the run's
        horizon. Imported lazily so the serving layer has no hard
        dependency on :mod:`repro.control`.
        """
        from repro.control.controller import QoSController

        self.controller = QoSController(
            scheduler,  # type: ignore[arg-type]
            policy=policy if policy is not None else self.control_policy,  # type: ignore[arg-type]
            cluster=self,
        )
        return self.controller

    def rebalance_queued(
        self, from_shard: int, to_shard: int, max_items: int
    ) -> int:
        """Move queued requests from the back of one shard's queue to a sibling.

        The control plane's pre-emptive cross-shard redistribution: items
        that would wait longest on a forecast-overloaded shard move to a
        sibling with headroom *before* the origin saturates, preserving
        their enqueue times and deadlines (one shared clock per cluster).
        A move is capacity-checked at the destination; on rejection the
        item is force-restored to its origin (never lost). Returns the
        number of items actually re-homed.
        """
        if from_shard == to_shard:
            raise ValueError("cannot rebalance a shard onto itself")
        origin = self.shards[from_shard]
        target = self.shards[to_shard]
        moved = 0
        for item in origin.queue.steal(max_items):
            if target.queue.adopt(item) is not None:
                moved += 1
            else:
                # Destination filled between the load check and the move:
                # the origin must take it back unconditionally.
                origin.queue.adopt(item, enforce_capacity=False)
        if moved and self.on_requeue is not None:
            self.on_requeue(target)
        return moved

    # -- the drain target ----------------------------------------------------------

    def drain_order(
        self,
        on_requeue: Optional[Callable[[DomainConfigurationService], None]] = None,
    ) -> List[DomainConfigurationService]:
        """The shards, in index order; ``on_requeue`` wakes rebalanced ones."""
        if on_requeue is not None:
            self.on_requeue = on_requeue
        return list(self.shards)

    def place(
        self, request: ServerRequest
    ) -> Tuple[RequestOutcome, Optional[DomainConfigurationService]]:
        """Submit; report the outcome and the shard that queued it."""
        placed = self.submit(request)
        if placed.outcome.status is RequestStatus.QUEUED:
            return placed.outcome, self.shards[placed.shard]
        return placed.outcome, None

    def served(self, outcome: RequestOutcome) -> None:
        """Nothing to note: a decided request leaves no state here."""

    # -- the front door ------------------------------------------------------------

    def submit(self, request: ServerRequest) -> ClusterOutcome:
        """Route, submit, and overflow once on a capacity shed."""
        self._submitted.incr()
        with get_tracer().span(
            "cluster.route", request_id=request.request_id
        ) as span:
            home = self.router.route(request, self.shards)
            span.set("shard", home)
            span.set("policy", type(self.router).__name__)
            self._routed[home].incr()
            outcome = self.shards[home].submit(request)
            span.set("status", outcome.status.value)
            placed = ClusterOutcome(
                request_id=request.request_id,
                home_shard=home,
                shard=home,
                outcome=outcome,
            )
            if (
                outcome.status is RequestStatus.SHED
                and outcome.shed_reason in OVERFLOW_REASONS
                and self.shard_count > 1
            ):
                placed = self._overflow(request, home, outcome)
                span.set("overflowed", placed.overflowed)
        if placed.outcome.status is RequestStatus.SHED:
            self._shed_at_submit.incr()
        return placed

    def _overflow(
        self,
        request: ServerRequest,
        home: int,
        home_outcome: RequestOutcome,
    ) -> ClusterOutcome:
        """Retry a capacity-shed request once on the least-loaded sibling."""
        self._overflow_attempts.incr()
        target = self.least_loaded(exclude={home})
        with get_tracer().span(
            "cluster.overflow",
            request_id=request.request_id,
            from_shard=home,
            to_shard=target,
        ) as span:
            span.set("reason", home_outcome.shed_reason or "")
            retried = self.shards[target].submit(request)
            span.set("status", retried.status.value)
            if retried.status is RequestStatus.SHED:
                self._overflow_reshed.incr()
            else:
                self._overflow_rescued.incr()
            return ClusterOutcome(
                request_id=request.request_id,
                home_shard=home,
                shard=target,
                outcome=retried,
                overflowed=True,
            )

    def least_loaded(self, exclude: Optional[Set[int]] = None) -> int:
        """The shard index with the lowest load signal (ties → lowest index)."""
        exclude = exclude or set()
        candidates = [
            index for index in range(self.shard_count) if index not in exclude
        ]
        if not candidates:
            raise ValueError("no candidate shards left after exclusions")
        return min(candidates, key=lambda index: (shard_load(self.shards[index]), index))

    # -- results -------------------------------------------------------------------

    def session_of(self, request_id: str) -> Optional[ApplicationSession]:
        """The request's live session on whichever shard runs it."""
        for shard in self.shards:
            session = shard.session_of(request_id)
            if session is not None:
                return session
        return None

    def audit(self) -> List[str]:
        """Union of every shard's ledger audit, tagged by shard index."""
        problems: List[str] = []
        for index, shard in enumerate(self.shards):
            problems.extend(
                f"shard{index}: {problem}" for problem in shard.audit()
            )
        return problems

    @property
    def metrics(self) -> "ClusterMetrics":
        return ClusterMetrics(self)


def merged_latency(
    shards: Iterable[DomainConfigurationService],
) -> Dict[str, Dict[str, float]]:
    """Nearest-rank summary per stage over the union of ``shards``' samples.

    Chains the shards' sample iterators instead of copying each shard's
    list: one union list per stage (needed for the sort), zero per-shard
    copies, zero scratch histograms.
    """
    shards = list(shards)
    latency: Dict[str, Dict[str, float]] = {}
    for stage in STAGE_NAMES:
        merged: List[float] = []
        for shard in shards:
            merged.extend(shard.metrics.stage(stage).iter_samples())
        latency[stage] = summarize_samples(merged)
    return latency


class ClusterMetrics:
    """Merged per-shard and whole-cluster view over the shared registry.

    Whole-cluster counters correct for overflow double-submission: an
    overflow attempt re-submits the same request to a sibling, so shard
    ``submitted`` (and one home-shard shed) counters each carry one extra
    increment per attempt. Whole-cluster percentiles are nearest-rank over
    the union of the shards' raw stage samples — not an average of
    per-shard percentiles.
    """

    def __init__(self, cluster: DomainCluster) -> None:
        self.cluster = cluster

    def snapshot(self) -> Dict[str, object]:
        shards = [shard.metrics.snapshot() for shard in self.cluster.shards]
        registry = self.cluster.registry
        overflow_attempts = registry.counter("cluster.overflow_attempts").value
        counters: Dict[str, int] = {
            name: sum(s["counters"][name] for s in shards)  # type: ignore[index]
            for name in COUNTER_NAMES
        }
        submitted = counters["submitted"] - overflow_attempts
        shed_raw = (
            counters["shed_queue_full"]
            + counters["shed_overload"]
            + counters["shed_deadline"]
        )
        shed_final = shed_raw - overflow_attempts
        latency = merged_latency(self.cluster.shards)
        routing = {
            "policy": type(self.cluster.router).__name__,
            "routed": [
                registry.counter(f"cluster.shard{i}.routed").value
                for i in range(self.cluster.shard_count)
            ],
            "overflow_attempts": overflow_attempts,
            "overflow_rescued": registry.counter("cluster.overflow_rescued").value,
            "overflow_reshed": registry.counter("cluster.overflow_reshed").value,
        }
        derived = {
            "shed_rate": stable_round(shed_final / submitted) if submitted else 0.0,
            "admit_rate": (
                stable_round(counters["admitted"] / submitted) if submitted else 0.0
            ),
            "overflow_rescue_rate": (
                stable_round(
                    registry.counter("cluster.overflow_rescued").value
                    / overflow_attempts
                )
                if overflow_attempts
                else 0.0
            ),
        }
        return {
            "cluster": {
                "shard_count": self.cluster.shard_count,
                "submitted": submitted,
                "admitted": counters["admitted"],
                "degraded": counters["admitted_degraded"],
                "failed": counters["failed"],
                "shed_final": shed_final,
                "conflict_retries": counters["conflict_retries"],
                "derived": derived,
                "latency": latency,
            },
            "routing": routing,
            "shards": shards,
        }

    def shed_rate(self) -> float:
        """Whole-cluster final-shed fraction of distinct submitted requests."""
        snapshot = self.snapshot()
        return snapshot["cluster"]["derived"]["shed_rate"]  # type: ignore[index]

    def to_json(self, extra: Optional[Dict[str, object]] = None) -> str:
        """Deterministic JSON serialization of :meth:`snapshot`."""
        payload = self.snapshot()
        if extra:
            payload = {**payload, **extra}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
