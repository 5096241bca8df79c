"""Recovery metrics: what broke, what was detected, what was healed.

Mirrors :class:`~repro.server.metrics.ServerMetrics` — a facade over the
unified :class:`~repro.observability.metrics.MetricsRegistry` (namespace
``recovery.``) that keeps its historical API and JSON shape: thread-safe
counters plus nearest-rank latency recorders, serialized with sorted keys
and fixed rounding so two runs that made the same decisions produce
byte-identical JSON (the chaos sweep's determinism guard asserts exactly
that). Pass the same ``registry=`` to both facades to aggregate a whole
run in one place.

The three latency stages are the subsystem's headline numbers:

- ``detection_ms`` — fault injection → detector suspicion (how long the
  failure went unnoticed);
- ``mttr_ms`` — detector suspicion → session recovered (mean time to
  repair, backoff waits included);
- ``interruption_ms`` — summed configuration overhead of the recovery
  attempts (how long the session's stream was actually disturbed).
"""

from __future__ import annotations

import json
import threading
from typing import Dict, Optional

from repro.observability.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    stable_round as _round,
)

#: Every counter the recovery subsystem maintains, in reporting order.
COUNTER_NAMES = (
    "faults_injected",
    "crash_faults",
    "departure_faults",
    "link_faults",
    "pressure_faults",
    "heartbeats",
    "suspicions",
    "false_suspicions",
    "verdicts",
    "sessions_affected",
    "recovery_attempts",
    "recoveries",
    "recoveries_degraded",
    "recovery_failures",
)

#: Latency stages, all in milliseconds.
STAGE_NAMES = (
    "detection_ms",
    "mttr_ms",
    "interruption_ms",
)


class RecoveryMetrics:
    """Thread-safe counters + per-stage latency percentiles."""

    NAMESPACE = "recovery"

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        prefix = self.NAMESPACE + "."
        self._counters: Dict[str, Counter] = {
            name: self.registry.counter(prefix + name) for name in COUNTER_NAMES
        }
        self._stages: Dict[str, Histogram] = {
            name: self.registry.histogram(prefix + name) for name in STAGE_NAMES
        }

    def incr(self, counter: str, by: int = 1) -> None:
        with self._lock:
            if counter not in self._counters:
                raise KeyError(f"unknown counter {counter!r}")
            self._counters[counter].incr(by)

    def record(self, stage: str, value_ms: float) -> None:
        with self._lock:
            if stage not in self._stages:
                raise KeyError(f"unknown latency stage {stage!r}")
            self._stages[stage].record(value_ms)

    def count(self, counter: str) -> int:
        with self._lock:
            return self._counters[counter].value

    def stage(self, name: str) -> Histogram:
        return self._stages[name]

    def recovery_success_rate(self) -> float:
        """Recovered fraction of affected sessions (1.0 when none affected)."""
        with self._lock:
            affected = self._counters["sessions_affected"].value
            recovered = self._counters["recoveries"].value
        if affected == 0:
            return 1.0
        return recovered / affected

    def snapshot(self) -> Dict[str, object]:
        """A plain-dict view: counters, derived rates, stage summaries."""
        with self._lock:
            counters = {
                name: counter.value for name, counter in self._counters.items()
            }
            stages = {
                name: recorder.summary()
                for name, recorder in self._stages.items()
            }
        affected = counters["sessions_affected"]
        suspicions = counters["suspicions"]
        derived = {
            "recovery_success_rate": (
                _round(counters["recoveries"] / affected) if affected else 1.0
            ),
            "degraded_recovery_rate": (
                _round(counters["recoveries_degraded"] / affected)
                if affected
                else 0.0
            ),
            "false_suspicion_rate": (
                _round(counters["false_suspicions"] / suspicions)
                if suspicions
                else 0.0
            ),
        }
        return {"counters": counters, "derived": derived, "latency": stages}

    def to_json(self, extra: Optional[Dict[str, object]] = None) -> str:
        """Deterministic JSON serialization of :meth:`snapshot`."""
        payload = self.snapshot()
        if extra:
            payload = {**payload, **extra}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))
