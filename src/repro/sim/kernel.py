"""The simulation event loop.

A classic calendar queue: callbacks scheduled at absolute times, executed
in (time, sequence) order so same-time events fire in scheduling order —
the property that makes whole-experiment runs deterministic.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional


class EventHandle:
    """A scheduled callback; cancellable until it fires.

    ``owner`` tags the event with whatever scheduled it, so
    :meth:`Simulator.cancel_owned` can drop all of one owner's pending
    events at once.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        owner: object = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the callback from firing (idempotent)."""
        self.cancelled = True

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class Simulator:
    """Logical-time event loop.

    ::

        sim = Simulator()
        sim.schedule(1.5, lambda: print("fires at t=1.5"))
        sim.run_until(10.0)

    Time is in seconds by convention throughout the package (experiments
    over hours simply use large numbers).
    """

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        self._queue: List[EventHandle] = []
        self._seq = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-yet-fired, not-cancelled events."""
        return sum(1 for h in self._queue if not h.cancelled)

    def schedule(
        self, delay: float, callback: Callable[[], None], owner: object = None
    ) -> EventHandle:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, owner)

    def schedule_at(
        self, time: float, callback: Callable[[], None], owner: object = None
    ) -> EventHandle:
        """Schedule a callback at an absolute simulation time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        handle = EventHandle(time, next(self._seq), callback, owner)
        heapq.heappush(self._queue, handle)
        return handle

    def cancel_owned(self, owner: object) -> None:
        """Cancel every pending event scheduled with ``owner`` (one pass
        over the calendar)."""
        for handle in self._queue:
            if handle.owner is owner:
                handle.cancel()

    def step(self) -> bool:
        """Execute the next event; False when the queue is empty."""
        while self._queue:
            handle = heapq.heappop(self._queue)
            if handle.cancelled:
                continue
            self._now = handle.time
            self._processed += 1
            handle.callback()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events``); returns count run."""
        executed = 0
        while self._queue:
            if max_events is not None and executed >= max_events:
                break
            if not self.step():
                break
            executed += 1
        return executed

    def run_until(self, time: float) -> int:
        """Run every event scheduled at or before ``time``; advance to it.

        Returns the number of events executed. The clock always ends at
        exactly ``time`` (even if the queue drained earlier).
        """
        if time < self._now:
            raise ValueError(f"cannot run back in time to t={time}")
        executed = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > time:
                break
            self.step()
            executed += 1
        self._now = time
        return executed

    def clear(self) -> None:
        """Drop all pending events (the clock is left untouched)."""
        self._queue.clear()
