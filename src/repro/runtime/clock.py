"""The repo-wide time abstraction: one Scheduler protocol, two drivers.

Every subsystem that defers work — the fault injector, the failure
detector's tick loop, the recovery manager's backoff retries, the server
drivers, and the tracing layer's timestamps — needs "call me in ``delay``
seconds" and "what time is it" without caring whether the experiment runs
on the simulation kernel (logical time, deterministic) or on real threads
(wall clock). A :class:`Scheduler` provides exactly that contract:

- :class:`SimScheduler` wraps a :class:`~repro.sim.kernel.Simulator`:
  callbacks become calendar-queue events, so experiments replay
  byte-identically per seed;
- :class:`WallClockScheduler` backs the same contract with
  ``threading.Timer`` for the thread-pool server driver; ``close()``
  cancels everything still pending.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, List, Optional, Protocol

from repro.sim.kernel import EventHandle, Simulator


class Scheduler(Protocol):
    """What deferred-execution consumers need from a time source."""

    @property
    def now(self) -> float:  # pragma: no cover - protocol
        ...

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> object:
        """Run ``callback`` after ``delay_s`` seconds; returns a handle."""
        ...  # pragma: no cover - protocol

    def cancel(self, handle: object) -> None:
        """Best-effort cancellation of a scheduled callback."""
        ...  # pragma: no cover - protocol


class SimScheduler:
    """Logical-time scheduling on the simulation kernel."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator

    @property
    def now(self) -> float:
        return self.simulator.now

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> EventHandle:
        return self.simulator.schedule(max(0.0, delay_s), callback)

    def cancel(self, handle: object) -> None:
        if isinstance(handle, EventHandle):
            handle.cancel()

    def clock(self) -> Callable[[], float]:
        """The matching clock callable (for detectors/metrics/tracers)."""
        return lambda: self.simulator.now


class WallClockScheduler:
    """``threading.Timer``-backed scheduling for the wall-clock drivers.

    Timers are daemonic, so a leaked scheduler cannot keep the process
    alive; still, call :meth:`close` at the end of an experiment to stop
    pending callbacks deterministically.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock or time.monotonic
        self._lock = threading.Lock()
        self._timers: List[threading.Timer] = []
        self._closed = False

    @property
    def now(self) -> float:
        return self._clock()

    def schedule(self, delay_s: float, callback: Callable[[], None]) -> threading.Timer:
        with self._lock:
            if self._closed:
                raise RuntimeError("scheduler is closed")
            timer = threading.Timer(max(0.0, delay_s), callback)
            timer.daemon = True
            self._timers.append(timer)
            timer.start()
            # Opportunistically drop finished timers so long runs do not
            # accumulate handles.
            self._timers = [t for t in self._timers if t.is_alive()]
            return timer

    def cancel(self, handle: object) -> None:
        if isinstance(handle, threading.Timer):
            handle.cancel()

    def close(self) -> None:
        """Cancel every pending timer (idempotent)."""
        with self._lock:
            self._closed = True
            timers, self._timers = self._timers, []
        for timer in timers:
            timer.cancel()

    def clock(self) -> Callable[[], float]:
        """The matching clock callable (for detectors/metrics/tracers)."""
        return self._clock
