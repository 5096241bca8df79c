"""Admission control: degradation under contention, shedding under load.

The controller walks a :class:`~repro.runtime.degradation.DegradationLadder`
— try the preferred QoS first, walk down — for a whole chunk of requests
at once: :meth:`AdmissionController.walk` plans every member against one
shared snapshot, then prepares and commits the round's plans under one
ledger lock each. A single admission is a walk of one. A failure caused by a
*reservation conflict* (a walk mate or a concurrent walk committed the
capacity between this plan and its prepare) is retried at the same level
against a fresh snapshot instead of being treated as genuine
infeasibility. Only when a level fails on real capacity grounds does the
walk descend.

:class:`OverloadPolicy` decides when the front end stops queueing and
sheds instead, and how long it tells the client to back off (retry-after
grows linearly with queue depth up to a configurable ceiling — simple,
deterministic backpressure).
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.composition.composer import CompositionRequest
from repro.distribution.pareto import (
    ParetoFront,
    ParetoPoint,
    UtilityProfile,
    utility_profile as resolve_utility_profile,
)
from repro.observability.tracing import get_tracer
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.degradation import (
    DegradationLadder,
    ScaledPayloads,
    scale_graph_demand,
)
from repro.runtime.session import (
    ApplicationSession,
    ConfigurationRecord,
    SessionState,
)
from repro.server.ledger import LedgerConflictError


@dataclass
class OverloadPolicy:
    """When to shed at the front door, and what retry-after to hint.

    ``queue_high_water`` is the queue-occupancy fraction above which the
    utilization check kicks in; a saturated ledger alone does not shed
    (queued work may be about to release capacity), but a deep queue *and*
    a saturated domain together mean new work has no realistic chance.
    """

    queue_high_water: float = 0.75
    utilization_threshold: float = 0.98
    retry_after_base_s: float = 0.25
    retry_after_per_queued_s: float = 0.05
    #: Ceiling on the hinted backoff: the linear depth term would
    #: otherwise tell clients behind a deep queue to go away for minutes,
    #: long after the congestion that shed them has drained.
    retry_after_max_s: float = 5.0
    #: Forecast-aware floor, set by the QoS controller while an overload
    #: forecast is standing and cleared on revert. The linear depth term
    #: only knows about *current* congestion; a standing forecast says the
    #: congestion will persist for at least its horizon, so the hint never
    #: tells a client to come back sooner than that — even past
    #: ``retry_after_max_s``, which caps stale-depth guesses, not forecasts.
    forecast_horizon_s: Optional[float] = None

    def should_shed(
        self, queue_depth: int, queue_capacity: int, utilization: float
    ) -> bool:
        if queue_capacity <= 0:
            return True
        occupancy = queue_depth / queue_capacity
        return (
            occupancy >= self.queue_high_water
            and utilization >= self.utilization_threshold
        )

    def retry_after_s(self, queue_depth: int) -> float:
        hint = min(
            self.retry_after_base_s
            + self.retry_after_per_queued_s * queue_depth,
            self.retry_after_max_s,
        )
        if self.forecast_horizon_s is not None:
            hint = max(hint, self.forecast_horizon_s)
        return hint


@dataclass
class AdmissionResult:
    """What one request's ladder walk produced."""

    session: ApplicationSession
    admitted_level: Optional[str]
    attempts: List[ConfigurationRecord] = field(default_factory=list)
    conflict_retries: int = 0
    #: Preference-order positions skipped before the first attempt
    #: (proactive degradation by the control plane; 0 for a normal walk).
    #: Always clamped below the ladder length, so at least one level is
    #: ever attempted.
    entry_offset: int = 0
    #: Name of the utility profile that ordered the walk (None for the
    #: classic best-fidelity-first descent).
    profile: Optional[str] = None

    @property
    def success(self) -> bool:
        return self.admitted_level is not None

    @property
    def degraded(self) -> bool:
        """Admitted below the ladder's top level.

        True either because the walk descended, or because a control-plane
        entry offset made it *start* below the top (the first attempt is
        already a degraded rung, even when it succeeds immediately).
        """
        return (
            self.success
            and bool(self.attempts)
            and (
                self.entry_offset > 0
                or self.attempts[0].label != self.attempts[-1].label
            )
        )

    def service_time_s(self) -> float:
        """Summed configuration overhead across all attempts, in seconds.

        The sim driver uses this as the worker's busy time for the
        request, so a request that walked the whole ladder occupies the
        server longer than one admitted at first try.
        """
        return sum(r.timing.total_ms for r in self.attempts) / 1000.0


@dataclass
class LadderWalk:
    """One session's progress through the grouped ladder walk.

    ``order`` holds ladder-level indices in walk order (the utility
    profile's preference order, entry offset already applied);
    ``position`` is the current index into it.
    """

    result: AdmissionResult
    order: Tuple[int, ...]
    retries_left: int
    on_done: Optional[Callable[[AdmissionResult], None]] = None
    position: int = 0

    def finish(self) -> None:
        if self.on_done is not None:
            self.on_done(self.result)


class FrontEntry:
    """One request class's measured points and the walk orders over them.

    ``orders`` maps a utility profile to its
    :meth:`~repro.runtime.degradation.DegradationLadder.order_for` over
    ``points``. Both are fixed while the entry lives, so each profile's
    order is computed once per entry.
    """

    __slots__ = ("token", "points", "orders")

    def __init__(
        self, token: object, points: Sequence[Optional[ParetoPoint]]
    ) -> None:
        self.token = token
        self.points: Tuple[Optional[ParetoPoint], ...] = tuple(points)
        self.orders: Dict[UtilityProfile, Tuple[int, ...]] = {}

    def order_for(
        self, ladder: DegradationLadder, profile: UtilityProfile
    ) -> Tuple[int, ...]:
        order = self.orders.get(profile)
        if order is None:
            order = self.orders[profile] = tuple(
                ladder.order_for(profile, self.points)
            )
        return order


class FrontCache:
    """Per-domain cache of measured ladder-level objective points.

    One :class:`FrontEntry` per request class — keyed on the class's
    abstract graph structure key and user QoS — holding the per-level
    :class:`~repro.distribution.pareto.ParetoPoint` list produced by
    probing every ladder level once, and each utility profile's walk
    order over those points. Each entry is stamped with the registry
    version it was measured against; a stale stamp invalidates the entry,
    orders included, on lookup (the registry version is the only
    invalidation signal; a grown graph has a new key — ledger churn does
    *not* evict, because the walk re-validates feasibility per attempt
    anyway). LRU bounded by ``max_entries``.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self.max_entries = max_entries
        self._entries: "OrderedDict[tuple, FrontEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple, token: object) -> Optional[FrontEntry]:
        """The live entry for ``key`` (counted as a hit), or None (a miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        if entry.token != token:
            del self._entries[key]
            self.invalidations += 1
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(
        self,
        key: tuple,
        token: object,
        points: Sequence[Optional[ParetoPoint]],
    ) -> FrontEntry:
        entry = self._entries[key] = FrontEntry(token, points)
        self._entries.move_to_end(key)
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return entry


class AdmissionController:
    """Admits configuration requests through the configurator's ledger."""

    def __init__(
        self,
        configurator: ServiceConfigurator,
        ladder: Optional[DegradationLadder] = None,
        max_conflict_retries: int = 2,
        skip_downloads: bool = False,
        front_cache: bool = True,
    ) -> None:
        if max_conflict_retries < 0:
            raise ValueError("max_conflict_retries cannot be negative")
        if configurator.ledger is None:
            raise ValueError("admission needs a configurator with a ledger")
        self.configurator = configurator
        self.ladder = ladder
        self.max_conflict_retries = max_conflict_retries
        self.skip_downloads = skip_downloads
        #: Per-domain measured front cache (None when disabled): repeated
        #: profile-driven admissions of one request class reuse the
        #: probed per-level points as an O(1) lookup.
        self.front_cache: Optional[FrontCache] = (
            FrontCache() if front_cache else None
        )
        #: Rung-scaled graph payloads, each scaled once per demand scale.
        self.scaled_payloads = ScaledPayloads()
        self._entry_offset = 0
        self._entry_max_priority = 0

    # -- proactive degradation (control-plane actuator) ----------------------------

    def set_entry_offset(self, offset: int, max_priority: int = 0) -> None:
        """Pre-emptively lower the ladder entry point for low-priority work.

        While set, requests with ``priority <= max_priority`` start their
        ladder walk ``offset`` rungs down instead of at the top — they can
        still be admitted, just degraded — leaving the skipped headroom
        for higher-priority classes during a forecast overload. The offset
        is clamped so at least one rung always remains. A no-op without a
        ladder. The QoS controller sets this on an overload forecast and
        calls :meth:`clear_entry_offset` when the forecast clears.
        """
        if offset < 0:
            raise ValueError("entry offset cannot be negative")
        if self.ladder is not None:
            # Clamp at set time: an over-deep offset (>= ladder length)
            # would otherwise skip every rung and hard-deny feasible
            # requests. The deepest legal entry is the last rung.
            offset = min(offset, len(self.ladder.levels) - 1)
        self._entry_offset = offset
        self._entry_max_priority = max_priority

    def clear_entry_offset(self) -> None:
        """Restore the full ladder for every priority class (idempotent)."""
        self._entry_offset = 0
        self._entry_max_priority = 0

    @property
    def entry_offset(self) -> int:
        """The currently configured offset (0 when inactive)."""
        return self._entry_offset

    def entry_offset_for(self, priority: int) -> int:
        """Where this priority class starts its walk (0 = top of ladder)."""
        if (
            self._entry_offset <= 0
            or self.ladder is None
            or priority > self._entry_max_priority
        ):
            return 0
        return min(self._entry_offset, len(self.ladder.levels) - 1)

    # -- per-class Pareto fronts ---------------------------------------------------

    def _registry_token(self) -> Optional[object]:
        """The registry content-version the front cache stamps entries with."""
        composer = getattr(self.configurator, "composer", None)
        if composer is None:
            return None
        return getattr(composer.discovery, "registry_version", None)

    @staticmethod
    def _class_key(request: CompositionRequest) -> tuple:
        """Identity of a request class, shared across its clients.

        The abstract graph's structure key (the composer's cache key on the
        graph) plus the user QoS: clients of one workload class share the
        front (their pins shift the measured points only marginally, and
        the walk re-validates feasibility per request anyway), while two
        graphs that share a name but differ in a spec or an edge do not.
        """
        return (request.abstract_graph.structure_key, request.user_qos)

    def _probe_points(
        self, request: CompositionRequest
    ) -> Tuple[Optional[ParetoPoint], ...]:
        """Plan every ladder level once; score each on the four axes.

        Plans run against the current ledger-net snapshot but acquire
        nothing — each probe plan is discarded via ``fail_planned``-less
        bookkeeping (the probe session never deploys and is dropped from
        the configurator's session table afterwards). A level whose plan
        is infeasible maps to None (its prior is used for ordering).
        """
        assert self.ladder is not None
        session = self.configurator.create_session(
            request, session_id=None, user_id=None
        )
        points: List[Optional[ParetoPoint]] = []
        try:
            for index, level in enumerate(self.ladder.levels):
                probe_request = dataclasses.replace(
                    request, user_qos=level.user_qos
                )
                scale = level.demand_scale
                planned, _failure = self.configurator.plan(
                    session,
                    probe_request,
                    label=f"probe@{level.label}",
                    graph_transform=lambda g, f=scale: scale_graph_demand(
                        g, f, self.scaled_payloads
                    ),
                )
                if planned is None or planned.distribution.objectives is None:
                    points.append(None)
                    continue
                points.append(
                    dataclasses.replace(
                        planned.distribution.objectives,
                        fidelity_loss=1.0 - level.demand_scale,
                        key=(f"level{index}", level.label),
                    )
                )
        finally:
            self.configurator.sessions.pop(session.session_id, None)
        return tuple(points)

    def class_points(
        self, request: CompositionRequest
    ) -> Tuple[Optional[ParetoPoint], ...]:
        """Measured per-level objective points for one request class.

        Served from the per-domain front cache when the entry's registry
        stamp is current — an O(1) lookup; probed (and cached) otherwise.
        Raises without a ladder.
        """
        if self.ladder is None:
            raise ValueError("class_points requires a degradation ladder")
        return self._class_entry(request).points

    def _class_entry(self, request: CompositionRequest) -> FrontEntry:
        """The request class's front-cache entry, probed on a miss.

        Without a usable cache the entry is fresh and unshared, so its
        walk orders are computed per request, as the points are.
        """
        token = self._registry_token()
        cache = self.front_cache if token is not None else None
        if cache is None:
            return FrontEntry(token, self._probe_points(request))
        key = self._class_key(request)
        entry = cache.get(key, token)
        if entry is None:
            entry = cache.put(key, token, self._probe_points(request))
        return entry

    def class_front(self, request: CompositionRequest) -> ParetoFront:
        """The request class's Pareto front over its ladder levels.

        Built from the measured per-level points (levels with infeasible
        plans are absent). Deterministically ordered; byte-identical per
        seed under the simulated drivers.
        """
        front = ParetoFront()
        for point in self.class_points(request):
            if point is not None:
                front.insert(point)
        return front

    def level_order(
        self,
        request: CompositionRequest,
        priority: int = 0,
        profile: Optional[Union[str, UtilityProfile]] = None,
    ) -> Tuple[int, ...]:
        """Ladder-level indices in walk order for one request.

        Without a profile: the classic best-first order. With one: the
        profile's utility order over the class's measured points. The
        standing entry offset (when this priority is subject to it)
        skips that many positions of the *preference* order — the
        control plane shifts the selected front point, not a raw rung.
        """
        if self.ladder is None:
            return (0,)
        if isinstance(profile, str):
            profile = resolve_utility_profile(profile)
        if profile is None:
            order = tuple(range(len(self.ladder.levels)))
        else:
            order = self._class_entry(request).order_for(self.ladder, profile)
        offset = self.entry_offset_for(priority)
        if offset:
            order = order[offset:]
        return order

    # -- the grouped ladder walk ---------------------------------------------------

    def admit(
        self,
        request: CompositionRequest,
        user_id: Optional[str] = None,
        session_id: Optional[str] = None,
        priority: int = 0,
        utility_profile: Optional[Union[str, UtilityProfile]] = None,
    ) -> AdmissionResult:
        """Walk the ladder (or try once, ladder-less) until admission.

        A walk of one. ``utility_profile`` (a name or a profile object)
        reorders the walk by the request class's utility over the measured
        per-level front; None keeps the classic best-fidelity-first
        descent.
        """
        session = self.configurator.create_session(
            request, user_id=user_id, session_id=session_id
        )
        with get_tracer().span(
            "admission.admit", session_id=session.session_id
        ) as span:
            walk = self.open_walk(
                session, priority=priority, utility_profile=utility_profile
            )
            self.walk([walk])
            result = walk.result
            span.set("admitted", result.success)
            span.set("level", result.admitted_level or "")
            span.set("attempts", len(result.attempts))
            span.set("conflict_retries", result.conflict_retries)
            if result.profile:
                span.set("profile", result.profile)
            return result

    def open_walk(
        self,
        session: ApplicationSession,
        priority: int = 0,
        utility_profile: Optional[Union[str, UtilityProfile]] = None,
        on_done: Optional[Callable[[AdmissionResult], None]] = None,
    ) -> LadderWalk:
        """Fix one session's walk order (profile order, entry offset applied).

        ``on_done`` is called with the final result the moment this
        session's walk finishes, which may be before its walk mates'.
        """
        if isinstance(utility_profile, str):
            utility_profile = resolve_utility_profile(utility_profile)
        return LadderWalk(
            result=AdmissionResult(
                session=session,
                admitted_level=None,
                entry_offset=self.entry_offset_for(priority),
                profile=utility_profile.name if utility_profile else None,
            ),
            order=self.level_order(
                session.request, priority=priority, profile=utility_profile
            ),
            retries_left=self.max_conflict_retries,
            on_done=on_done,
        )

    def walk(self, walks: Sequence[LadderWalk]) -> None:
        """Walk every session down its ladder in grouped rounds.

        Each round plans every active session at its current level against
        one shared environment snapshot, holds all the plans under one
        ledger lock (:meth:`ReservationLedger.prepare_many` — each plan
        sees its walk mates' holds, so the group cannot over-book),
        commits the survivors under one more, and deploys the winners.
        A session whose capacity was taken retries at the same level
        against a fresh snapshot until its conflict budget is spent; a
        genuine capacity failure descends. Every session either finishes,
        spends a retry or descends per round, so the loop terminates.
        """
        levels = self.ladder.levels if self.ladder is not None else (None,)
        with get_tracer().span("admission.walk", size=len(walks)):
            active = list(walks)
            while active:
                next_round: List[LadderWalk] = []
                planned = []
                for walk in active:
                    plan = self._plan(walk, levels, next_round)
                    if plan is not None:
                        planned.append((walk, plan))
                if planned:
                    self._commit_round(planned, next_round)
                active = next_round

    def _plan(self, walk: LadderWalk, levels, next_round):
        """Plan one session at its current level; absorb a plan-time failure."""
        session = walk.result.session
        if session.state is SessionState.FAILED:
            session.state = SessionState.NEW
        level = levels[walk.order[walk.position]]
        if level is not None:
            session.request = dataclasses.replace(
                session.request, user_qos=level.user_qos
            )
            label = f"admit@{level.label}"
            scale = level.demand_scale
        else:
            label = "admit"
            scale = 1.0
        planned, failure = self.configurator.plan(
            session,
            session.request,
            label,
            graph_transform=lambda g, f=scale: scale_graph_demand(
                g, f, self.scaled_payloads
            ),
        )
        if failure is None:
            return planned
        session.absorb_record(failure)
        walk.result.attempts.append(failure)
        self._descend(walk, next_round)
        return None

    def _commit_round(self, planned, next_round) -> None:
        """One grouped prepare/commit round over this round's plans."""
        ledger = self.configurator.ledger
        txns = [
            ledger.begin(owner=walk.result.session.session_id)
            for walk, _plan in planned
        ]
        prepare_errors = ledger.prepare_many(
            [
                (txn, plan.graph, plan.assignment)
                for txn, (_walk, plan) in zip(txns, planned)
            ]
        )
        to_commit = []
        for (walk, plan), txn, error in zip(planned, txns, prepare_errors):
            if error is None:
                to_commit.append((walk, plan, txn))
            else:
                ledger.abort(txn)
                self._conflicted(walk, plan, next_round)
        if not to_commit:
            return
        commit_results = ledger.commit_many([txn for _w, _p, txn in to_commit])
        for (walk, plan, txn), tokens in zip(to_commit, commit_results):
            if isinstance(tokens, LedgerConflictError):
                # commit_many already aborted the transaction.
                self._conflicted(walk, plan, next_round)
                continue
            session = walk.result.session
            record = self.configurator.deploy_planned(
                session, plan, tokens, txn, skip_downloads=self.skip_downloads
            )
            session.absorb_record(record)
            walk.result.attempts.append(record)
            if record.success:
                walk.result.admitted_level = record.label
                walk.finish()
            else:
                # A deployment error is not a conflict: descend.
                self._descend(walk, next_round)

    def _conflicted(self, walk: LadderWalk, plan, next_round) -> None:
        """A walk mate (or a concurrent walk) took this plan's capacity."""
        session = walk.result.session
        record = self.configurator.fail_planned(session, plan, conflict=True)
        session.absorb_record(record)
        walk.result.attempts.append(record)
        if walk.retries_left > 0:
            walk.retries_left -= 1
            walk.result.conflict_retries += 1
            next_round.append(walk)
            return
        self._descend(walk, next_round)

    def _descend(self, walk: LadderWalk, next_round) -> None:
        """Move to the next level of the walk order, or finish as FAILED."""
        if walk.position + 1 < len(walk.order):
            walk.position += 1
            walk.retries_left = self.max_conflict_retries
            next_round.append(walk)
            return
        walk.finish()

