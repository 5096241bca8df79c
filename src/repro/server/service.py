"""The domain configuration service front end.

``submit`` is the domain server's public door: it either queues the
request, or sheds it immediately (queue full, or deep queue over a
saturated ledger) with a retry-after hint. The worker side drains the
queue in chunks sized by the service's :class:`BatchPolicy` and serves
each chunk with :meth:`DomainConfigurationService.serve_chunk`: expired
requests become deadline sheds, the rest walk the degradation ladder
together through :meth:`~repro.server.admission.AdmissionController.walk`
against the reservation ledger. ``process_next`` is a chunk of one.
Every disposition and every stage latency lands in
:class:`~repro.server.metrics.ServerMetrics`.

The service is clock-agnostic: pass a monotonic wall clock for the
thread-pool driver or the simulator's logical clock for deterministic
trace replay — see :mod:`repro.server.drivers`.
"""

from __future__ import annotations

import enum
import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.composition.composer import CompositionRequest
from repro.events.types import Topics
from repro.observability.tracing import get_tracer
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.degradation import DegradationLadder
from repro.runtime.session import ApplicationSession, ConfigurationRecord
from repro.server.admission import (
    AdmissionController,
    AdmissionResult,
    OverloadPolicy,
)
from repro.server.ledger import ReservationLedger
from repro.server.metrics import ServerMetrics
from repro.server.queue import BoundedRequestQueue, QueuedRequest, QueuePolicy
from repro.store import RecordStore, SessionRecord, SessionStatus


@dataclass(frozen=True)
class BatchPolicy:
    """How the drivers drain a service: chunk size and linger.

    ``max_batch_size`` caps the chunk drained per flush; ``max_linger_s``
    is how long an under-full chunk may wait for company before it is
    served anyway (0 disables lingering: every flush takes whatever is
    queued right now). Both are read by the drivers — the service itself
    serves whatever chunk it is handed.
    """

    max_batch_size: int = 8
    max_linger_s: float = 0.02

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        if self.max_linger_s < 0:
            raise ValueError("max_linger_s cannot be negative")


#: One request per flush, no lingering: the policy of a plain service and
#: of every ``batched=False`` build.
UNBATCHED = BatchPolicy(max_batch_size=1, max_linger_s=0.0)


@dataclass(frozen=True)
class ServerRequest:
    """One configuration request presented to the domain service."""

    request_id: str
    composition: CompositionRequest
    priority: int = 0
    deadline_s: Optional[float] = None
    duration_s: Optional[float] = None
    user_id: Optional[str] = None
    #: Scenario workload this request was generated from, when any — the
    #: durable store persists it so crash-restart recovery can rebuild
    #: the composition request from the scenario spec alone.
    workload: Optional[str] = None
    #: Named utility profile ordering this request's ladder walk (see
    #: :data:`repro.distribution.pareto.UTILITY_PROFILES`); None keeps
    #: the classic best-fidelity-first descent.
    utility_profile: Optional[str] = None


class RequestStatus(enum.Enum):
    QUEUED = "queued"
    ADMITTED = "admitted"
    DEGRADED = "degraded"
    SHED = "shed"
    FAILED = "failed"


@dataclass
class RequestOutcome:
    """Final (or submit-time) disposition of one request."""

    request_id: str
    status: RequestStatus
    level: Optional[str] = None
    shed_reason: Optional[str] = None
    retry_after_s: Optional[float] = None
    queue_wait_s: float = 0.0
    session: Optional[ApplicationSession] = None
    attempts: List[ConfigurationRecord] = field(default_factory=list)
    service_time_s: float = 0.0
    duration_s: Optional[float] = None

    @property
    def admitted(self) -> bool:
        return self.status in (RequestStatus.ADMITTED, RequestStatus.DEGRADED)


class DomainConfigurationService:
    """Queue + admission + ledger + metrics, in front of one domain."""

    #: The chunk policy the drivers drain this service with.
    batch: BatchPolicy = UNBATCHED

    def __init__(
        self,
        configurator: ServiceConfigurator,
        ladder: Optional[DegradationLadder] = None,
        queue_capacity: int = 64,
        queue_policy: QueuePolicy = QueuePolicy.FIFO,
        overload: Optional[OverloadPolicy] = None,
        clock: Optional[Callable[[], float]] = None,
        skip_downloads: bool = False,
        max_conflict_retries: int = 2,
        metrics: Optional[ServerMetrics] = None,
        store: Optional[RecordStore] = None,
        scenario: Optional[str] = None,
        front_cache: bool = True,
    ) -> None:
        self.configurator = configurator
        self.ledger: ReservationLedger = configurator.ledger
        self._clock = clock or time.monotonic
        # Durable substrate, only when one is passed: each service boot
        # opens a fresh epoch, so a successor sharing a persistent store
        # can tell its predecessor's sessions (and dangling ledger holds)
        # from its own. Without one, nothing is recorded.
        self.store: Optional[RecordStore] = store
        self.scenario = scenario
        self.epoch: Optional[int] = None
        if store is not None:
            self.epoch = store.open_epoch()
            self.ledger.attach_store(store, self.epoch, clock=self._clock)
            configurator.bus.subscribe(
                Topics.APPLICATION_STOPPED, self._on_session_stopped
            )
        self.queue = BoundedRequestQueue(
            queue_capacity, policy=queue_policy, clock=self._clock
        )
        self.overload = overload or OverloadPolicy()
        self.admission = AdmissionController(
            configurator,
            ladder=ladder,
            max_conflict_retries=max_conflict_retries,
            skip_downloads=skip_downloads,
            front_cache=front_cache,
        )
        self.metrics = metrics if metrics is not None else ServerMetrics()
        self._lock = threading.Lock()
        self._outcomes: Dict[str, RequestOutcome] = {}

    def now(self) -> float:
        """The service's notion of time (sim or wall clock)."""
        return self._clock()

    # -- the front door ------------------------------------------------------------

    def submit(self, request: ServerRequest) -> RequestOutcome:
        """Queue the request, or shed it immediately with backpressure.

        The shed decision and the enqueue happen atomically under the
        queue lock (:meth:`BoundedRequestQueue.try_put`), so concurrent
        submits can neither blow past the overload high-water mark nor
        compute retry-after hints from a stale depth.
        """
        self.metrics.incr("submitted")
        result = self.queue.try_put(
            request,
            priority=request.priority,
            deadline_s=request.deadline_s,
            shed_if=lambda depth: self.overload.should_shed(
                depth, self.queue.capacity, self.ledger.utilization()
            ),
        )
        if result.item is None:
            self.metrics.incr(
                "shed_overload"
                if result.shed_reason == "overload"
                else "shed_queue_full"
            )
            return self._finish(
                RequestOutcome(
                    request_id=request.request_id,
                    status=RequestStatus.SHED,
                    shed_reason=result.shed_reason,
                    retry_after_s=self.overload.retry_after_s(result.depth),
                )
            )
        return RequestOutcome(
            request_id=request.request_id, status=RequestStatus.QUEUED
        )

    def load_score(self) -> float:
        """Queue occupancy plus ledger utilization.

        The routing load signal (both terms in [0, 1]: an idle shard scores
        0.0, a saturated one ~2.0). The ledger memoizes utilization on its
        own version tokens, so probes between state changes do not walk
        the domain.
        """
        return self.queue.depth / self.queue.capacity + self.ledger.utilization()

    # -- the drain target ---------------------------------------------------------

    def drain_order(
        self,
        on_requeue: Optional[
            Callable[["DomainConfigurationService"], None]
        ] = None,
    ) -> List["DomainConfigurationService"]:
        """The services a driver drains for this target: just this one."""
        return [self]

    def place(
        self, request: ServerRequest
    ) -> Tuple[RequestOutcome, Optional["DomainConfigurationService"]]:
        """Submit; report the submit-time outcome and who queued it."""
        outcome = self.submit(request)
        return outcome, self if outcome.status is RequestStatus.QUEUED else None

    # -- the worker side -----------------------------------------------------------

    def process_next(
        self, block: bool = False, timeout: Optional[float] = None
    ) -> Optional[RequestOutcome]:
        """Serve the next queued request; None when nothing is available."""
        queued = (
            self.queue.get(timeout) if block else self.queue.pop()
        )
        if queued is None:
            return None
        return self.serve_chunk([queued])[0]

    def drain(self, max_requests: Optional[int] = None) -> List[RequestOutcome]:
        """Serve queued requests in policy-sized chunks until empty."""
        outcomes: List[RequestOutcome] = []
        while max_requests is None or len(outcomes) < max_requests:
            room = self.batch.max_batch_size
            if max_requests is not None:
                room = min(room, max_requests - len(outcomes))
            chunk = self.queue.pop_many(room)
            if not chunk:
                break
            outcomes.extend(self.serve_chunk(chunk))
        return outcomes

    def serve_chunk(
        self, queued: Sequence[QueuedRequest]
    ) -> List[RequestOutcome]:
        """Serve an already-drained chunk: deadline sheds, then one walk.

        Returns the final outcomes in drain order. A request's disposition
        (metrics, durable record, outcome table) is recorded the moment its
        own walk finishes, so a chunk of one and a chunk of many account
        identically.
        """
        with get_tracer().span("server.batch", size=len(queued)) as span:
            now = self._clock()
            finals: List[Optional[RequestOutcome]] = [None] * len(queued)
            walks = []
            for index, entry in enumerate(queued):
                request: ServerRequest = entry.request  # type: ignore[assignment]
                wait_s = max(0.0, now - entry.enqueued_at)
                self.metrics.record("queue_wait_ms", wait_s * 1000.0)
                if entry.expired(now):
                    self.metrics.incr("shed_deadline")
                    finals[index] = self._finish(
                        RequestOutcome(
                            request_id=request.request_id,
                            status=RequestStatus.SHED,
                            shed_reason="deadline",
                            queue_wait_s=wait_s,
                            duration_s=request.duration_s,
                        )
                    )
                    continue
                session = self.configurator.create_session(
                    request.composition,
                    user_id=request.user_id,
                    session_id=f"{request.request_id}/session",
                )
                walks.append(
                    self.admission.open_walk(
                        session,
                        priority=request.priority,
                        utility_profile=request.utility_profile,
                        on_done=functools.partial(
                            self._walked, finals, index, request, wait_s
                        ),
                    )
                )
            if walks:
                self.admission.walk(walks)
            span.set("served", len(finals))
            span.set("admitted", sum(1 for o in finals if o.admitted))
            return finals  # type: ignore[return-value]

    # -- results -------------------------------------------------------------------

    def outcome(self, request_id: str) -> Optional[RequestOutcome]:
        """The final outcome of a request, if it has been served."""
        with self._lock:
            return self._outcomes.get(request_id)

    def outcomes(self) -> List[RequestOutcome]:
        """All final outcomes recorded so far (submit order not guaranteed)."""
        with self._lock:
            return list(self._outcomes.values())

    def stop_session(self, outcome: RequestOutcome) -> None:
        """Retire an admitted request's session (frees its reservations)."""
        if outcome.session is not None and outcome.session.running:
            outcome.session.stop()

    def audit(self) -> List[str]:
        """The ledger's invariant problems (empty when balanced)."""
        return self.ledger.audit()

    # -- internals -----------------------------------------------------------------

    def _walked(
        self,
        finals: List[Optional[RequestOutcome]],
        index: int,
        request: ServerRequest,
        wait_s: float,
        result: AdmissionResult,
    ) -> None:
        """Record one request's final disposition as its walk finishes."""
        with get_tracer().span(
            "server.serve", request_id=request.request_id
        ) as span:
            outcome = self._outcome_from(request, wait_s, result)
            span.set("status", outcome.status.value)
            finals[index] = self._finish(outcome)

    def _outcome_from(
        self,
        request: ServerRequest,
        wait_s: float,
        result: AdmissionResult,
    ) -> RequestOutcome:
        if result.conflict_retries:
            self.metrics.incr("conflict_retries", result.conflict_retries)
        if result.success:
            status = (
                RequestStatus.DEGRADED
                if result.degraded
                else RequestStatus.ADMITTED
            )
            self.metrics.incr("admitted")
            if result.degraded:
                self.metrics.incr("admitted_degraded")
            final = result.attempts[-1]
            self.metrics.record("composition_ms", final.timing.composition_ms)
            self.metrics.record("distribution_ms", final.timing.distribution_ms)
            self.metrics.record(
                "deployment_ms",
                final.timing.download_ms + final.timing.initialization_ms,
            )
            self.metrics.record(
                "total_ms",
                wait_s * 1000.0 + sum(r.timing.total_ms for r in result.attempts),
            )
        else:
            status = RequestStatus.FAILED
            self.metrics.incr("failed")
        if result.success and self.store is not None:
            self._persist_session(request, result)
        return RequestOutcome(
            request_id=request.request_id,
            status=status,
            level=result.admitted_level,
            queue_wait_s=wait_s,
            session=result.session,
            attempts=list(result.attempts),
            service_time_s=result.service_time_s(),
            duration_s=request.duration_s,
        )

    def _persist_session(
        self, request: ServerRequest, result: AdmissionResult
    ) -> None:
        """Write the admitted session's durable record."""
        now = self._clock()
        self.store.put_session(
            SessionRecord(
                session_id=result.session.session_id,
                request_id=request.request_id,
                epoch=self.epoch,
                user_id=request.user_id,
                scenario=self.scenario,
                workload=request.workload,
                client_device=request.composition.client_device_id,
                level=result.admitted_level,
                priority=request.priority,
                status=SessionStatus.ACTIVE,
                txn_id=result.session.deployment.ledger_txn.txn_id,
                created_s=now,
                updated_s=now,
            )
        )

    def _on_session_stopped(self, event) -> None:
        """Mark the stopped session's record released (any stop path —
        client departure, recovery teardown, migration — emits the event)."""
        session_id = event.payload.get("session_id")
        if session_id:
            self.store.mark_session(
                str(session_id), SessionStatus.RELEASED, self._clock()
            )

    def _finish(self, outcome: RequestOutcome) -> RequestOutcome:
        with self._lock:
            self._outcomes[outcome.request_id] = outcome
        return outcome
