"""Bounded request queue with FIFO/priority policies and deadlines.

A single heap implementation serves both policies: FIFO orders by
admission sequence alone, PRIORITY by (-priority, sequence) so higher
priorities pop first and equal priorities stay FIFO. The clock is
injected: the thread-pool driver passes a monotonic wall clock, the
sim-kernel driver passes the simulator's logical clock — deadlines and
queue-wait measurements then work identically (and deterministically)
under both.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple


@dataclass(frozen=True)
class PutResult:
    """What an atomic :meth:`BoundedRequestQueue.try_put` decided.

    ``depth`` is the queue depth the decision was actually made against
    (post-enqueue when the item was accepted), so backpressure hints are
    never computed from a stale reading.
    """

    item: Optional["QueuedRequest"]
    depth: int
    shed_reason: Optional[str] = None

    @property
    def accepted(self) -> bool:
        return self.item is not None


class QueuePolicy(enum.Enum):
    FIFO = "fifo"
    PRIORITY = "priority"


@dataclass(frozen=True)
class QueuedRequest:
    """One queued work item with its admission-time bookkeeping."""

    request: object
    priority: int
    seq: int
    enqueued_at: float
    deadline_at: Optional[float]

    def expired(self, now: float) -> bool:
        """True when the request's queueing deadline has passed."""
        return self.deadline_at is not None and now > self.deadline_at + 1e-12


class BoundedRequestQueue:
    """A thread-safe bounded queue; full means the caller must shed."""

    def __init__(
        self,
        capacity: int,
        policy: QueuePolicy = QueuePolicy.FIFO,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("queue capacity must be at least 1")
        self.capacity = capacity
        self.policy = policy
        self._clock = clock or time.monotonic
        self._heap: List[Tuple[Tuple[float, int], QueuedRequest]] = []
        self._seq = itertools.count()
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._version = 0

    @property
    def depth(self) -> int:
        """Number of queued requests."""
        with self._lock:
            return len(self._heap)

    @property
    def version(self) -> int:
        """Change counter: bumps on every enqueue and dequeue.

        Equal versions imply identical queue contents, which is what the
        router's memoized shard-load score keys on (together with the
        ledger version) to make repeated load probes O(1).
        """
        with self._lock:
            return self._version

    def put(
        self,
        request: object,
        priority: int = 0,
        deadline_s: Optional[float] = None,
    ) -> Optional[QueuedRequest]:
        """Enqueue; returns the queued item, or None when full (shed)."""
        return self.try_put(request, priority=priority, deadline_s=deadline_s).item

    def try_put(
        self,
        request: object,
        priority: int = 0,
        deadline_s: Optional[float] = None,
        shed_if: Optional[Callable[[int], bool]] = None,
    ) -> PutResult:
        """Atomically decide shed-vs-enqueue under the queue lock.

        ``shed_if`` receives the live depth and may veto the enqueue (the
        overload policy's TOCTOU-free hook: the depth it sees is the depth
        the item would queue behind, not a snapshot that concurrent
        submitters can invalidate). Returns a :class:`PutResult` whose
        ``depth`` reflects the decision point, so retry-after hints stay
        honest under contention.
        """
        with self._lock:
            depth = len(self._heap)
            if shed_if is not None and shed_if(depth):
                return PutResult(item=None, depth=depth, shed_reason="overload")
            if depth >= self.capacity:
                return PutResult(item=None, depth=depth, shed_reason="queue_full")
            now = self._clock()
            item = QueuedRequest(
                request=request,
                priority=priority,
                seq=next(self._seq),
                enqueued_at=now,
                deadline_at=None if deadline_s is None else now + deadline_s,
            )
            heapq.heappush(self._heap, (self._key(item), item))
            self._version += 1
            self._not_empty.notify()
            return PutResult(item=item, depth=depth + 1)

    def pop(self) -> Optional[QueuedRequest]:
        """Dequeue the next item per policy; None when empty (non-blocking).

        Expired items are returned like any other — the service inspects
        :meth:`QueuedRequest.expired` and accounts them as deadline sheds,
        so they still appear in the metrics rather than vanishing.
        """
        with self._lock:
            if not self._heap:
                return None
            self._version += 1
            return heapq.heappop(self._heap)[1]

    def pop_many(self, max_items: int) -> List[QueuedRequest]:
        """Dequeue up to ``max_items`` per policy under ONE lock acquisition.

        The batched serving core's drain: N items cost one lock round trip
        instead of N. Returns fewer than ``max_items`` (possibly zero) when
        the queue runs dry; expired items are returned like any other so
        the service can account them as deadline sheds.
        """
        if max_items <= 0:
            return []
        with self._lock:
            count = min(max_items, len(self._heap))
            if count:
                self._version += 1
            return [heapq.heappop(self._heap)[1] for _ in range(count)]

    def steal(self, max_items: int) -> List[QueuedRequest]:
        """Remove up to ``max_items`` from the BACK of the queue (rebalance).

        The back — the items the policy would serve *last* — is where
        pre-emptive cross-shard rebalancing takes from: those items face
        the longest residual wait on this queue, so they gain the most
        from moving to an idle sibling, and the front of the line is
        undisturbed. Returns the stolen items worst-positioned first.
        Callers must re-home every stolen item (via a sibling's
        :meth:`adopt`) — a stolen request has no disposition yet.
        """
        if max_items <= 0:
            return []
        with self._lock:
            count = min(max_items, len(self._heap))
            if not count:
                return []
            # Capacity is small (tens); sort the heap's keyed entries and
            # slice the tail rather than maintaining a second structure.
            ordered = sorted(self._heap, key=lambda pair: pair[0])
            stolen = [item for _, item in reversed(ordered[-count:])]
            keep = ordered[:-count]
            heapq.heapify(keep)
            self._heap = keep
            self._version += 1
            return stolen

    def adopt(
        self, item: QueuedRequest, enforce_capacity: bool = True
    ) -> Optional[QueuedRequest]:
        """Insert a previously stolen item, preserving its bookkeeping.

        Keeps ``enqueued_at`` and ``deadline_at`` (queues share one
        injected clock inside a cluster, so waits and deadlines stay
        honest across the move) but assigns a fresh local sequence number
        — the adopted item joins the back of its priority class here.
        With ``enforce_capacity=False`` the insert always succeeds (the
        rebalancer's rollback path: returning a stolen item to its origin
        must never lose it, even if the origin refilled meanwhile).
        Returns the adopted item, or None when full and enforcing.
        """
        with self._lock:
            if enforce_capacity and len(self._heap) >= self.capacity:
                return None
            adopted = dataclasses.replace(item, seq=next(self._seq))
            heapq.heappush(self._heap, (self._key(adopted), adopted))
            self._version += 1
            self._not_empty.notify()
            return adopted

    def get(
        self,
        timeout: Optional[float] = None,
        on_pop: Optional[Callable[[], None]] = None,
    ) -> Optional[QueuedRequest]:
        """Blocking dequeue for thread drivers; None on timeout.

        Waits in a loop: a woken waiter whose item was already popped by a
        faster consumer (a stolen wakeup) re-waits for whatever remains of
        its timeout — recomputed from the injected clock — instead of
        reporting a premature timeout while time remains. ``on_pop`` runs
        under the queue lock as the item leaves, so a consumer can count
        itself busy before anyone can see the queue without the item.
        """
        deadline = None if timeout is None else self._clock() + timeout
        with self._not_empty:
            while not self._heap:
                if deadline is None:
                    self._not_empty.wait()
                    continue
                remaining = deadline - self._clock()
                if remaining <= 0:
                    return None
                self._not_empty.wait(remaining)
            self._version += 1
            if on_pop is not None:
                on_pop()
            return heapq.heappop(self._heap)[1]

    def _key(self, item: QueuedRequest) -> Tuple[float, int]:
        if self.policy is QueuePolicy.PRIORITY:
            return (-float(item.priority), item.seq)
        return (0.0, item.seq)
