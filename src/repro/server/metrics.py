"""The server's metrics surface, backed by the unified registry.

:class:`ServerMetrics` keeps its historical API and JSON shape — counters
for every request disposition plus latency recorders for each stage of
the pipeline (queue wait, composition, distribution, deployment,
end-to-end) — but the instruments themselves now live in a
:class:`~repro.observability.metrics.MetricsRegistry` under the
``server.`` namespace, so one registry can aggregate the server, the
recovery subsystem, and anything else in a run.

Percentiles use the nearest-rank method on the full sample set, and
:meth:`ServerMetrics.to_json` serializes with sorted keys and fixed float
rounding — two runs that made the same decisions produce byte-identical
JSON, which is what the deterministic-replay guarantee of the sim driver
is asserted against.
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

#: Every counter the service maintains, in reporting order.
COUNTER_NAMES = (
    "submitted",
    "admitted",
    "admitted_degraded",
    "shed_queue_full",
    "shed_overload",
    "shed_deadline",
    "failed",
    "conflict_retries",
)

#: Latency stages, all in milliseconds.
STAGE_NAMES = (
    "queue_wait_ms",
    "composition_ms",
    "distribution_ms",
    "deployment_ms",
    "total_ms",
)


class ServerMetrics:
    """Thread-safe counters + per-stage latency percentiles.

    A facade over a :class:`MetricsRegistry` (a private one by default;
    pass ``registry=`` to share one across subsystems). Instrument names
    are prefixed ``server.`` inside the registry — or ``namespace=`` when
    given, which is how cluster shards register as ``cluster.shard<i>.*``
    in one shared registry; this class's own API is unprefixed and
    unchanged either way.
    """

    NAMESPACE = "server"

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        namespace: Optional[str] = None,
    ) -> None:
        self._lock = threading.Lock()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.namespace = namespace if namespace is not None else self.NAMESPACE
        prefix = self.namespace + "."
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

    @property
    def shed_total(self) -> int:
        with self._lock:
            return (
                self._counters["shed_queue_full"].value
                + self._counters["shed_overload"].value
                + self._counters["shed_deadline"].value
            )

    def stage(self, name: str) -> Histogram:
        return self._stages[name]

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
        submitted = counters["submitted"]
        shed = (
            counters["shed_queue_full"]
            + counters["shed_overload"]
            + counters["shed_deadline"]
        )
        derived = {
            "shed_rate": _round(shed / submitted) if submitted else 0.0,
            "admit_rate": (
                _round(counters["admitted"] / submitted) if submitted else 0.0
            ),
            "degraded_rate": (
                _round(counters["admitted_degraded"] / submitted)
                if submitted
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
