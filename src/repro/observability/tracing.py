"""Structured spans with deterministic identity and scheduler-driven time.

A :class:`Tracer` hands out :class:`Span` objects arranged in trees:
every span carries a ``trace_id`` (shared by the whole tree), its own
``span_id``, and its parent's ``span_id``. Identifiers are sequential
integers from the tracer — no UUIDs, no wall-clock entropy — and
timestamps are read from whatever clock the tracer was built with
(typically a :class:`~repro.runtime.clock.Scheduler`), so a seeded
simulation run exports byte-identical NDJSON on every replay.

Two usage shapes:

- ``with tracer.span("distribution.search") as span:`` — the common
  case. The span is pushed on a thread-local stack for its duration, so
  nested instrumentation picks it up as the parent automatically.
- ``span = tracer.begin("recovery.episode"); ... tracer.finish(span)`` —
  detached spans for episodes that live across scheduler callbacks and
  therefore cannot sit on any call stack. Children link to them via the
  explicit ``parent=`` argument.

Instrumented library code never holds a tracer; it calls
:func:`get_tracer`, which returns the process-wide active tracer — a
:class:`NullTracer` by default, whose every operation is a no-op, so the
instrumentation costs almost nothing when tracing is off. Activate a real
tracer for a scope with :func:`activated`.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Union

#: Anything a tracer accepts as a time source: a zero-arg callable or an
#: object with a ``now`` property (the Scheduler protocol, a Simulator).
ClockLike = Union[Callable[[], float], object]


def _resolve_clock(clock: Optional[ClockLike]) -> Callable[[], float]:
    if clock is None:
        import time

        return time.monotonic
    if callable(clock):
        return clock
    if hasattr(clock, "now"):
        return lambda: clock.now
    raise TypeError(
        "clock must be a zero-arg callable or expose a 'now' property"
    )


class Span:
    """One timed phase of a run; a node in a trace tree."""

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start_s",
        "end_s",
        "status",
        "attributes",
        "events",
    )

    def __init__(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start_s: float,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.status = "ok"
        self.attributes: Dict[str, object] = {}
        self.events: List[Dict[str, object]] = []

    def set(self, key: str, value: object) -> "Span":
        """Attach an attribute; chainable."""
        self.attributes[key] = value
        return self

    def event(self, name: str, timestamp_s: float, **attrs: object) -> None:
        """Record a point-in-time annotation inside the span."""
        entry: Dict[str, object] = {"name": name, "timestamp_s": timestamp_s}
        if attrs:
            entry.update(attrs)
        self.events.append(entry)

    @property
    def finished(self) -> bool:
        return self.end_s is not None

    @property
    def duration_ms(self) -> float:
        """Elapsed milliseconds; 0.0 while the span is still open."""
        if self.end_s is None:
            return 0.0
        return (self.end_s - self.start_s) * 1000.0

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready view with fixed rounding for stable serialization."""
        payload: Dict[str, object] = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 9),
            "end_s": None if self.end_s is None else round(self.end_s, 9),
            "duration_ms": round(self.duration_ms, 6),
            "status": self.status,
        }
        if self.attributes:
            payload["attributes"] = self.attributes
        if self.events:
            payload["events"] = self.events
        return payload

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span(name={self.name!r}, trace={self.trace_id}, "
            f"id={self.span_id}, parent={self.parent_id})"
        )


class _SpanContext:
    """Context manager that opens a stacked span on entry, closes on exit."""

    __slots__ = ("_tracer", "_name", "_parent", "_attrs", "_span")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        parent: Optional[Span],
        attrs: Dict[str, object],
    ) -> None:
        self._tracer = tracer
        self._name = name
        self._parent = parent
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        span = self._tracer.begin(self._name, parent=self._parent)
        if self._attrs:
            span.attributes.update(self._attrs)
        self._tracer._push(span)
        self._span = span
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        assert span is not None
        self._tracer._pop(span)
        if exc_type is not None:
            span.status = "error"
            span.set("error_type", exc_type.__name__)
        self._tracer.finish(span)
        return False


class Tracer:
    """Creates, stacks, and exports spans against one clock."""

    def __init__(self, clock: Optional[ClockLike] = None) -> None:
        self._clock = _resolve_clock(clock)
        self._span_ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self.finished_spans: List[Span] = []

    # -- span lifecycle ------------------------------------------------------

    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: object
    ) -> _SpanContext:
        """``with tracer.span(...) as s:`` — stacked span for the block."""
        return _SpanContext(self, name, parent, attrs)

    def begin(self, name: str, parent: Optional[Span] = None) -> Span:
        """Open a detached span (not stacked); pair with :meth:`finish`.

        ``parent`` defaults to the current stacked span, so detached
        episodes still join the enclosing trace when one is open.
        """
        if parent is None:
            parent = self.current()
        with self._lock:
            span_id = next(self._span_ids)
            if parent is None:
                trace_id = next(self._trace_ids)
                parent_id = None
            else:
                trace_id = parent.trace_id
                parent_id = parent.span_id
        return Span(trace_id, span_id, parent_id, name, self._clock())

    def finish(self, span: Span, status: Optional[str] = None) -> None:
        """Close a span and record it for export (idempotent)."""
        if span.end_s is not None:
            return
        span.end_s = self._clock()
        if status is not None:
            span.status = status
        with self._lock:
            self.finished_spans.append(span)

    # -- the thread-local stack ---------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()

    def current(self) -> Optional[Span]:
        """The innermost open stacked span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def event(self, name: str, **attrs: object) -> None:
        """Annotate the current span (no-op when no span is open)."""
        span = self.current()
        if span is not None:
            span.event(name, self._clock(), **attrs)

    @property
    def now(self) -> float:
        return self._clock()

    # -- export --------------------------------------------------------------

    def export_ndjson(self) -> str:
        """One JSON object per finished span, in finish order.

        Sorted keys + fixed rounding: two runs that made the same
        decisions at the same logical times produce identical bytes.
        """
        with self._lock:
            spans = list(self.finished_spans)
        lines = [
            json.dumps(span.to_dict(), sort_keys=True, separators=(",", ":"))
            for span in spans
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.export_ndjson())


class _NullSpan:
    """Inert span: every mutation is a no-op. Shared singleton."""

    __slots__ = ()

    trace_id = 0
    span_id = 0
    parent_id = None
    name = ""
    start_s = 0.0
    end_s = 0.0
    status = "ok"
    finished = True
    duration_ms = 0.0

    @property
    def attributes(self) -> Dict[str, object]:
        return {}

    @property
    def events(self) -> List[Dict[str, object]]:
        return []

    def set(self, key: str, value: object) -> "_NullSpan":
        return self

    def event(self, name: str, timestamp_s: float, **attrs: object) -> None:
        return None

    def to_dict(self) -> Dict[str, object]:
        return {}


NULL_SPAN = _NullSpan()


class _NullContext:
    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class NullTracer:
    """The default tracer: does nothing, costs (almost) nothing."""

    __slots__ = ()

    finished_spans: List[Span] = []

    def span(self, name: str, parent: object = None, **attrs: object) -> _NullContext:
        return _NULL_CONTEXT

    def begin(self, name: str, parent: object = None) -> _NullSpan:
        return NULL_SPAN

    def finish(self, span: object, status: Optional[str] = None) -> None:
        return None

    def current(self) -> None:
        return None

    def event(self, name: str, **attrs: object) -> None:
        return None

    @property
    def now(self) -> float:
        return 0.0

    def export_ndjson(self) -> str:
        return ""

    def write_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("")


NULL_TRACER = NullTracer()

_active: Union[Tracer, NullTracer] = NULL_TRACER


def get_tracer() -> Union[Tracer, NullTracer]:
    """The process-wide active tracer (a no-op NullTracer by default)."""
    return _active


def set_tracer(tracer: Union[Tracer, NullTracer, None]) -> None:
    """Install ``tracer`` as the active tracer (``None`` → NullTracer)."""
    global _active
    _active = tracer if tracer is not None else NULL_TRACER


@contextmanager
def activated(tracer: Union[Tracer, NullTracer]) -> Iterator[Union[Tracer, NullTracer]]:
    """Activate ``tracer`` for a scope, restoring the previous one after."""
    previous = get_tracer()
    set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)
