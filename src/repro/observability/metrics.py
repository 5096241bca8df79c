"""The unified metrics substrate: counters, gauges, histograms, one registry.

Every aggregation path in the repo reports through a
:class:`MetricsRegistry`: :class:`~repro.server.metrics.ServerMetrics`
and :class:`~repro.faults.metrics.RecoveryMetrics` are thin facades that
namespace their instruments here (``server.*`` / ``recovery.*``) while
preserving their historical JSON shapes byte-for-byte.

Percentiles use the nearest-rank method on the full sample set, and all
serialization uses sorted keys plus fixed rounding
(:func:`stable_round`), preserving the deterministic-replay guarantee the
sim driver's tests assert.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
from typing import Callable, Dict, Iterator, List, Optional, Sequence


def stable_round(value: float) -> float:
    """Fixed rounding so serialized metrics are stable across runs."""
    return round(value, 6)


def summarize_samples(samples: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank summary of a raw sample sequence, with a single sort.

    The one summary shape used everywhere (``{count, mean, p50, p90, p99,
    max}``); :meth:`Histogram.summary` delegates here, and cluster reports
    call it directly on the lazily merged union of shard samples instead
    of re-recording every sample into a scratch histogram. The mean sums
    in the sequence's own order, so a merge that concatenates shards in
    shard order reproduces the historical float-sum byte-for-byte.
    """
    count = len(samples)
    if not count:
        return {"count": 0}
    ordered = sorted(samples)

    def nearest_rank(p: float) -> float:
        return ordered[max(1, math.ceil(p / 100.0 * count)) - 1]

    return {
        "count": count,
        "mean": stable_round(sum(samples) / count),
        "p50": stable_round(nearest_rank(50)),
        "p90": stable_round(nearest_rank(90)),
        "p99": stable_round(nearest_rank(99)),
        "max": stable_round(ordered[-1]),
    }


class Counter:
    """A monotonically adjusted integer (decrements allowed but unusual)."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0

    def incr(self, by: int = 1) -> None:
        self._value += by

    @property
    def value(self) -> int:
        return self._value


class Gauge:
    """A point-in-time numeric reading (last write wins).

    With a ``clock`` attached the gauge also remembers *when* it was last
    written (``updated_at_s``), so control-plane readers can distinguish a
    fresh reading from a stale one — the staleness fix for what used to be
    a write-only instrument.
    """

    __slots__ = ("name", "_value", "_clock", "_updated_at")

    def __init__(
        self, name: str, clock: Optional[Callable[[], float]] = None
    ) -> None:
        self.name = name
        self._value = 0.0
        self._clock = clock
        self._updated_at: Optional[float] = None

    def set(self, value: float) -> None:
        self._value = value
        if self._clock is not None:
            self._updated_at = self._clock()

    @property
    def value(self) -> float:
        return self._value

    @property
    def updated_at_s(self) -> Optional[float]:
        """Clock time of the last write (None when clockless or unwritten)."""
        return self._updated_at


class Histogram:
    """Collects samples for one distribution (milliseconds by convention).

    Exact nearest-rank percentile semantics. The service and recovery
    metrics keep one histogram per stage.
    """

    __slots__ = ("name", "_samples", "_times", "_clock", "_max_samples", "_dropped")

    def __init__(
        self,
        name: str = "",
        clock: Optional[Callable[[], float]] = None,
        max_samples: Optional[int] = None,
    ) -> None:
        if max_samples is not None and max_samples < 1:
            raise ValueError("max_samples must be at least 1")
        self.name = name
        self._samples: List[float] = []
        self._clock = clock
        #: Parallel record timestamps, kept only when a clock is attached
        #: (the windowed-view key); None keeps the clockless hot path free
        #: of per-record clock reads.
        self._times: Optional[List[float]] = [] if clock is not None else None
        self._max_samples = max_samples
        self._dropped = 0

    def record(self, value: float) -> None:
        self._samples.append(value)
        if self._times is not None:
            self._times.append(self._clock())  # type: ignore[misc]
        if self._max_samples is not None and len(self._samples) > self._max_samples:
            overflow = len(self._samples) - self._max_samples
            del self._samples[:overflow]
            if self._times is not None:
                del self._times[:overflow]
            self._dropped += overflow

    def samples(self) -> List[float]:
        """A copy of the raw samples (safe to mutate)."""
        return list(self._samples)

    def samples_since(self, cutoff_s: float) -> List[float]:
        """Samples recorded at or after ``cutoff_s`` (clock-stamped only).

        Timestamps are appended in record order and every injected clock
        is monotonic, so a bisect finds the window start in O(log n).
        Raises when the histogram has no clock — a clockless histogram
        cannot answer windowed queries honestly.
        """
        if self._times is None:
            raise ValueError(
                f"histogram {self.name!r} has no clock; "
                "windowed views need a clock-attached registry"
            )
        start = bisect.bisect_left(self._times, cutoff_s)
        return self._samples[start:]

    @property
    def dropped(self) -> int:
        """Samples evicted by the memory guard (0 when unbounded)."""
        return self._dropped

    def iter_samples(self) -> Iterator[float]:
        """Read-only iteration over the raw samples, no copy.

        Cluster exports merge thousands of shard samples per stage; this
        keeps that merge allocation-free per shard. Callers must not
        record into this histogram while iterating.
        """
        return iter(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile; 0.0 when empty."""
        if not self._samples:
            return 0.0
        if not 0 < p <= 100:
            raise ValueError("percentile must be in (0, 100]")
        ordered = sorted(self._samples)
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    def summary(self) -> Dict[str, float]:
        return summarize_samples(self._samples)


class MetricsRegistry:
    """Process-wide named instruments with get-or-create access.

    Names are dotted (``server.admitted``, ``recovery.mttr_ms``); the
    registry does not interpret them, but facades use the prefix as their
    namespace. All access is serialized on one lock — instruments are
    cheap and the hot paths touch them a handful of times per request.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        max_histogram_samples: Optional[int] = None,
    ) -> None:
        """``clock`` enables windowed views (:meth:`windowed`) by stamping
        every histogram record and gauge write; ``max_histogram_samples``
        is the opt-in memory guard capping each histogram's retained
        samples (oldest evicted first) for long wall-clock runs. Both
        default off, so existing golden JSON stays byte-identical.
        """
        self._lock = threading.Lock()
        self._clock = clock
        self._max_histogram_samples = max_histogram_samples
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    @property
    def clock(self) -> Optional[Callable[[], float]]:
        """The injected clock (None when the registry is clockless)."""
        return self._clock

    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name, clock=self._clock)
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(
                    name,
                    clock=self._clock,
                    max_samples=self._max_histogram_samples,
                )
            return instrument

    def windowed(self, name: str, horizon_s: float) -> List[float]:
        """Histogram samples recorded in the trailing ``horizon_s`` seconds.

        The rolling-window view the control plane's signal layer reads:
        clock-bounded, so a burst of latency samples ages out of the
        window instead of polluting forecasts forever. Requires the
        registry to have been built with a clock; an unknown name returns
        an empty (freshly created) window rather than raising, matching
        the registry's get-or-create access pattern.
        """
        if self._clock is None:
            raise ValueError(
                "windowed views need a clock-attached registry "
                "(pass clock= to MetricsRegistry)"
            )
        if horizon_s < 0:
            raise ValueError("window horizon cannot be negative")
        return self.histogram(name).samples_since(self._clock() - horizon_s)

    def names(self) -> List[str]:
        """Every registered instrument name, sorted."""
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view of every instrument, keyed by kind then name."""
        with self._lock:
            counters = {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            }
            gauges = {
                name: stable_round(gauge.value)
                for name, gauge in sorted(self._gauges.items())
            }
            histograms = {
                name: histogram.summary()
                for name, histogram in sorted(self._histograms.items())
            }
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }

    def to_json(self, extra: Optional[Dict[str, object]] = None) -> str:
        """Deterministic JSON serialization of :meth:`snapshot`."""
        payload = self.snapshot()
        if extra:
            payload = {**payload, **extra}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def export_ndjson(self) -> str:
        """One JSON object per instrument — the streaming-friendly view."""
        snapshot = self.snapshot()
        lines: List[str] = []
        for kind_key, kind in (
            ("counters", "counter"),
            ("gauges", "gauge"),
            ("histograms", "histogram"),
        ):
            for name, value in snapshot[kind_key].items():  # type: ignore[union-attr]
                lines.append(
                    json.dumps(
                        {"kind": kind, "name": name, "value": value},
                        sort_keys=True,
                        separators=(",", ":"),
                    )
                )
        return "\n".join(lines) + ("\n" if lines else "")
