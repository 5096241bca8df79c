"""Two ways to drive a serving target, and the one harness around a run.

A target is anything that implements :class:`ServingTarget`: one
:class:`~repro.server.service.DomainConfigurationService`, a
:class:`~repro.server.cluster.DomainCluster` of shards, or a
:class:`~repro.federation.tier.FederationTier` of clusters. The drivers
see only the services the target asks them to drain and a submit that
says which service queued a request. Each service is drained in chunks
sized by its own :class:`~repro.server.service.BatchPolicy`; a plain
service's policy is a chunk of one.

:class:`ThreadPoolDriver` runs real worker threads per service — the
configuration used by the stress tests to prove the ledger's
no-over-booking invariant under genuine interleaving.

:class:`SimulatedServerDriver` replays an arrival trace through the sim
kernel: arrivals, linger timers, worker busy periods (sized by each
chunk's analytic configuration overhead) and session departures are all
logical-time events, so the same seed yields byte-identical metrics JSON
on every run.

Every sweep and scenario run goes through one of two functions:
:func:`sim_replay` (optional sim-clocked root span, the whole trace, the
audit) and :func:`thread_burst` (a real pool fed the whole trace at once,
drained, released and audited). Both end in :func:`audit_or_raise`, the
one place a broken ledger invariant becomes an error.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import ExitStack
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    Union,
)

from repro.observability.tracing import Tracer, activated
from repro.runtime.session import ApplicationSession
from repro.server.ledger import ReservationLedger
from repro.server.service import (
    DomainConfigurationService,
    RequestOutcome,
    ServerRequest,
)
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import ArrivalEvent


class ServingTarget(Protocol):
    """What a driver needs from the thing it drives."""

    def drain_order(
        self,
        on_requeue: Optional[Callable[[DomainConfigurationService], None]] = None,
    ) -> Sequence[DomainConfigurationService]:
        """The services to drain, in a fixed order.

        ``on_requeue(service)`` is called when work reaches a service's
        queue without a submit (control-plane rebalancing).
        """

    def place(
        self, request
    ) -> Tuple[RequestOutcome, Optional[DomainConfigurationService]]:
        """Submit; return the submit-time outcome and the service that
        queued the request (None when it was shed)."""

    def served(self, outcome: RequestOutcome) -> None:
        """Note a request's served outcome (the drivers call it once per
        served request; the outcome itself stays the caller's)."""

    def audit(self) -> List[str]:
        """Every ledger's invariant problems (empty when balanced)."""


def audit_or_raise(
    target: Union[ServingTarget, ReservationLedger], context: str
) -> None:
    """Raise ``AssertionError`` naming ``context`` if ``target`` audits dirty."""
    problems = target.audit()
    if problems:
        raise AssertionError(
            f"ledger invariant violated during {context}: " + "; ".join(problems)
        )


class ThreadPoolDriver:
    """``workers`` threads per drained service, pulling chunks from its queue.

    Each wakeup blocks for one request, lingers briefly for company when
    the chunk is under-full, tops the chunk up with one ``pop_many`` lock
    round trip, and serves the whole chunk.
    """

    def __init__(self, target: ServingTarget, workers: int = 8) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.target = target
        self.services = list(target.drain_order())
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()
        #: One entry per request a worker has popped and not yet finished.
        #: Deque appends and pops are atomic, so a worker can claim inside
        #: the queue lock without taking a second lock there.
        self._claims: deque = deque()
        self._lock = threading.Lock()
        #: Every served outcome of this pool's run, for its caller.
        self.outcomes: List[RequestOutcome] = []

    def start(self) -> None:
        if self._threads:
            raise RuntimeError("driver already started")
        self._stop.clear()
        for lane, service in enumerate(self.services):
            for index in range(self.workers):
                thread = threading.Thread(
                    target=self._worker,
                    args=(service,),
                    name=f"config-worker-{lane}.{index}",
                    daemon=True,
                )
                thread.start()
                self._threads.append(thread)

    def stop(self) -> None:
        """Signal workers to exit and join them."""
        self._stop.set()
        for thread in self._threads:
            thread.join()
        self._threads.clear()

    def wait_idle(self, timeout: float = 10.0, poll_s: float = 0.005) -> bool:
        """Block until every queue is empty and no worker holds a request.

        Queue depths are read before the claims: a worker claims a
        request under the queue lock as it pops it and drops the claim
        only after recording its outcome, so an unfinished request is
        always visible in one of the two.
        """
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if (
                all(service.queue.depth == 0 for service in self.services)
                and not self._claims
            ):
                return True
            time.sleep(poll_s)
        return False

    def _claim(self) -> None:
        self._claims.append(None)

    def _worker(self, service: DomainConfigurationService) -> None:
        queue = service.queue
        policy = service.batch
        while not self._stop.is_set():
            first = queue.get(timeout=0.02, on_pop=self._claim)
            if first is None:
                continue
            outcomes: List[RequestOutcome] = []
            try:
                chunk = [first]
                chunk.extend(queue.pop_many(policy.max_batch_size - 1))
                if len(chunk) < policy.max_batch_size and policy.max_linger_s > 0:
                    time.sleep(policy.max_linger_s)
                    chunk.extend(
                        queue.pop_many(policy.max_batch_size - len(chunk))
                    )
                outcomes = service.serve_chunk(chunk)
                for outcome in outcomes:
                    self.target.served(outcome)
            finally:
                with self._lock:
                    self.outcomes.extend(outcomes)
                self._claims.pop()


class _Lane:
    """One drained service's worker state under the sim driver."""

    __slots__ = ("service", "busy", "flush_scheduled")

    def __init__(self, service: DomainConfigurationService) -> None:
        self.service = service
        self.busy = 0
        self.flush_scheduled = False


class SimulatedServerDriver:
    """Deterministic trace replay through the simulation kernel.

    The target's services must have been constructed with
    ``clock=simulator_clock`` (use :meth:`clock` before building them) so
    queue-wait and deadline accounting read logical time. ``workers``
    bounds how many chunks each service serves concurrently. A service
    flushes as soon as a full chunk is queued (or its policy does not
    linger); otherwise an under-full chunk waits ``max_linger_s`` of
    logical time for company. A chunk occupies its worker for the summed
    analytic configuration overhead of its requests
    (:meth:`~repro.server.admission.AdmissionResult.service_time_s`).
    Admitted sessions stop (releasing their reservations) ``duration_s``
    after their chunk completes. The driver keeps no outcome: each one
    lives until its chunk completes and its session's stop is scheduled.
    """

    def __init__(
        self,
        target: ServingTarget,
        simulator: Simulator,
        workers: int = 2,
        min_service_s: float = 1e-3,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.target = target
        self.sim = simulator
        self.workers = workers
        self.min_service_s = min_service_s
        self._lanes: Dict[DomainConfigurationService, _Lane] = {
            service: _Lane(service)
            for service in target.drain_order(on_requeue=self._dispatch)
        }

    @staticmethod
    def clock(simulator: Simulator) -> Callable[[], float]:
        """The logical clock to pass as the services' ``clock``."""
        return lambda: simulator.now

    def schedule_trace(
        self,
        trace: Iterable[ArrivalEvent],
        request_factory: Callable[[ArrivalEvent], ServerRequest],
    ) -> None:
        """Schedule one submit event per arrival in the trace."""
        for event in trace:
            self.sim.schedule_at(
                event.arrival_s,
                lambda e=event: self.arrive(request_factory(e)),
            )

    def run(self) -> None:
        """Run the simulation to completion."""
        self.sim.run()

    def arrive(self, request) -> None:
        """Submit one request now and wake the service that queued it."""
        _, service = self.target.place(request)
        if service is not None:
            self._dispatch(service)

    # -- event handlers ------------------------------------------------------------

    def _dispatch(self, service: DomainConfigurationService) -> None:
        lane = self._lanes[service]
        policy = service.batch
        while lane.busy < self.workers:
            depth = service.queue.depth
            if depth == 0:
                return
            if depth >= policy.max_batch_size or policy.max_linger_s <= 0:
                self._flush(lane)
                continue
            if not lane.flush_scheduled:
                lane.flush_scheduled = True
                self.sim.schedule(
                    policy.max_linger_s, lambda: self._linger_flush(lane), lane
                )
            return

    def _linger_flush(self, lane: _Lane) -> None:
        lane.flush_scheduled = False
        if lane.busy < self.workers and lane.service.queue.depth > 0:
            self._flush(lane)
        self._dispatch(lane.service)

    def _flush(self, lane: _Lane) -> None:
        service = lane.service
        outcomes = service.serve_chunk(
            service.queue.pop_many(service.batch.max_batch_size)
        )
        for outcome in outcomes:
            self.target.served(outcome)
        lane.busy += 1
        busy_s = max(
            self.min_service_s,
            sum(outcome.service_time_s for outcome in outcomes),
        )
        self.sim.schedule(busy_s, lambda: self._complete(lane, outcomes), lane)

    def _complete(self, lane: _Lane, outcomes: List[RequestOutcome]) -> None:
        lane.busy -= 1
        for outcome in outcomes:
            if outcome.admitted and outcome.duration_s is not None:
                self.sim.schedule(
                    outcome.duration_s,
                    lambda s=outcome.session: _retire(s),
                    lane,
                )
        self._dispatch(lane.service)

    def stop_at(
        self,
        service: DomainConfigurationService,
        session: ApplicationSession,
        at_s: float,
    ) -> None:
        """Stop ``service``'s ``session`` at ``at_s`` (at once when that
        has passed), as a pending event of the service's lane."""
        self.sim.schedule(
            max(0.0, at_s - self.sim.now),
            lambda: _retire(session),
            self._lanes[service],
        )

    def replace(
        self, dead: DomainConfigurationService, successor: DomainConfigurationService
    ) -> None:
        """Drive ``successor`` in place of a killed service.

        Every event the dead service's lane still has pending (chunk
        completions, linger flushes, session stops) is cancelled, so
        nothing of the dead service reaches its successor; the successor
        starts on an idle lane, and becomes the target when ``dead`` was.
        """
        self.sim.cancel_owned(self._lanes.pop(dead))
        self._lanes[successor] = _Lane(successor)
        if self.target is dead:
            self.target = successor


def sim_replay(
    driver: SimulatedServerDriver,
    arrivals: Iterable[ArrivalEvent],
    request_factory: Callable[[ArrivalEvent], object],
    context: str,
    root_span: Optional[Tuple[str, Dict[str, object]]] = None,
    setup: Optional[Callable[[], None]] = None,
    teardown: Optional[Callable[[], None]] = None,
) -> str:
    """Replay ``arrivals`` through ``driver`` to completion and audit its target.

    With ``root_span=(name, attributes)`` the replay runs under a tracer on
    the driver's logical clock, inside that root span, and the span NDJSON
    is returned ("" untraced). ``setup`` runs inside the root span before
    the first arrival is scheduled; ``teardown`` runs after the simulation
    drains, before the audit. ``context`` names the run in the audit error.
    """
    tracer = Tracer(driver.clock(driver.sim)) if root_span is not None else None
    with ExitStack() as stack:
        if tracer is not None:
            name, attributes = root_span
            stack.enter_context(activated(tracer))
            stack.enter_context(tracer.span(name, **attributes))
        if setup is not None:
            setup()
        driver.schedule_trace(arrivals, request_factory)
        driver.run()
        if teardown is not None:
            teardown()
        audit_or_raise(driver.target, context)
    return tracer.export_ndjson() if tracer is not None else ""


def thread_burst(
    target: ServingTarget,
    requests: Iterable[object],
    workers: int,
    timeout_s: float,
    context: str,
) -> None:
    """Submit every request at a real worker pool, drain it, and audit.

    Time-compressed open loop: all requests go in as fast as the caller
    can build them while ``workers`` threads per service serve. Raises
    ``TimeoutError`` when the pool does not drain within ``timeout_s``.
    Admitted sessions are then stopped, so the audit also proves the
    release path balances every ledger.
    """
    pool = ThreadPoolDriver(target, workers=workers)
    pool.start()
    try:
        for request in requests:
            target.place(request)
        drained = pool.wait_idle(timeout=timeout_s)
    finally:
        pool.stop()
    if not drained:
        raise TimeoutError(
            f"worker pool did not drain within {timeout_s:g}s during {context}"
        )
    for outcome in pool.outcomes:
        _retire(outcome.session)
    audit_or_raise(target, context)


def _retire(session: Optional[ApplicationSession]) -> None:
    """Stop a served request's session if it still runs."""
    if session is not None and session.running:
        session.stop()
