"""Per-layer tracing from outside the program.

:class:`LayerTracer` wraps the public methods listed in ``layers.json``
with ``perf_counter_ns`` spans linked to their parent span, keeps the
spans of a round in memory, and folds them into per-layer totals when the
round ends. Wrappers exist only between :meth:`install` and
:meth:`restore`; the program's own ``Tracer`` is never touched.

Self time is a span's duration minus the durations of its direct
children, so the self times of all spans partition the time covered by
top-level spans, and busy time outside every span is the harness's.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "layers.json")

#: Classes whose instances the wrappers remember, to read their public
#: counters (cache hits, queue samples, controller counters) afterwards.
CAPTURED = {
    "repro.server.service.DomainConfigurationService.submit": "services",
    "repro.composition.composer.ServiceComposer.compose": "composers",
}

_NAME, _PARENT, _START, _END, _ITEMS, _BAD = range(6)


def load_layers(path: str = LAYERS_FILE) -> Dict[str, dict]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)["layers"]


def _resolve(dotted: str) -> Tuple[type, List[str]]:
    """``pkg.mod.Class.method`` (or ``Class.*``) → class and method names."""
    module_name, class_name, method = dotted.rsplit(".", 2)
    cls = getattr(importlib.import_module(module_name), class_name)
    if method != "*":
        return cls, [method]
    return cls, sorted(
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value)
    )


def _observe_items(key: str, obj, args, result, error) -> Tuple[int, int]:
    """(items handled, items that failed) for the calls that batch or can fail."""
    method = key.rsplit(".", 1)[1]
    if method in ("prepare_many", "commit_many"):
        outcomes = result if result is not None else []
        return len(args[0]), sum(1 for o in outcomes if isinstance(o, Exception))
    if method in ("prepare", "commit"):
        return 1, int(error is not None)
    if method == "plan":
        return 1, int(result is None or result[0] is None)
    if method == "distribute":
        return 1, int(result is None or not result.feasible)
    if method == "process_batch":
        return len(result or ()), int(not result)
    if key.endswith("DomainConfigurationService.submit"):
        return obj.queue.depth, 0
    return 1, 0


class LayerTracer:
    """Installs span wrappers and aggregates their spans per layer."""

    def __init__(self, layers: Optional[Dict[str, dict]] = None) -> None:
        self.layers = layers if layers is not None else load_layers()
        self.layer_of: Dict[str, str] = {}
        self.targets: List[Tuple[type, str, str]] = []
        for layer, spec in self.layers.items():
            for dotted in spec["methods"]:
                cls, methods = _resolve(dotted)
                for method in methods:
                    key = f"{cls.__module__}.{cls.__qualname__}.{method}"
                    self.layer_of[key] = layer
                    self.targets.append((cls, method, key))
        self.keys = [key for _cls, _method, key in self.targets]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._saved: List[Tuple[type, str, object]] = []
        self.instances: Dict[str, Dict[int, object]] = defaultdict(dict)
        self.controllers: List[object] = []
        # Folded totals over every traced round.
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive_ns: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, int] = defaultdict(int)
        self.bad: Dict[str, int] = defaultdict(int)
        self.max_items: Dict[str, int] = defaultdict(int)
        self.layer_self_ns: Dict[str, int] = defaultdict(int)
        # Inclusive time of spans entering a layer from outside it.
        self.layer_busy_ns: Dict[str, int] = defaultdict(int)
        self.spanned_ns = 0

    # -- wrappers ---------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for cls, method, key in self.targets:
            original = vars(cls)[method]
            self._saved.append((cls, method, original))
            setattr(cls, method, self._wrap(key, original))

    def restore(self) -> None:
        while self._saved:
            cls, method, original = self._saved.pop()
            setattr(cls, method, original)

    def _wrap(self, key: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        index_of = self.keys.index(key)
        captured = self.instances[CAPTURED[key]] if key in CAPTURED else None
        controllers = self.controllers if key.endswith(".attach_controller") else None

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            record = [index_of, stack[-1] if stack else -1, clock(), 0, 1, 0]
            stack.append(len(spans))
            spans.append(record)
            error = None
            result = None
            try:
                result = fn(obj, *args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                record[_END] = clock()
                stack.pop()
                record[_ITEMS], record[_BAD] = _observe_items(
                    key, obj, args, result, error
                )
                if captured is not None:
                    captured[id(obj)] = obj
                if controllers is not None and result is not None:
                    controllers.append(result)

        return traced

    # -- folding ----------------------------------------------------------------

    def fold(self) -> None:
        """Fold this round's spans into the running totals, then drop them."""
        if self._stack:
            raise RuntimeError("fold() called with spans still open")
        children_ns = [0] * len(self.spans)
        for record in self.spans:
            if record[_PARENT] >= 0:
                children_ns[record[_PARENT]] += record[_END] - record[_START]
        for index, record in enumerate(self.spans):
            key = self.keys[record[_NAME]]
            layer = self.layer_of[key]
            duration = record[_END] - record[_START]
            self.layer_self_ns[layer] += duration - children_ns[index]
            parent = record[_PARENT]
            if parent < 0:
                self.spanned_ns += duration
            if parent < 0 or self.layer_of[self.keys[self.spans[parent][_NAME]]] != layer:
                self.layer_busy_ns[layer] += duration
            # Per-call figures count outermost calls only, so a method that
            # recurses into itself is not double counted.
            if parent >= 0 and self.spans[parent][_NAME] == record[_NAME]:
                continue
            self.calls[key] += 1
            self.inclusive_ns[key] += duration
            self.items[key] += record[_ITEMS]
            self.bad[key] += record[_BAD]
            self.max_items[key] = max(self.max_items[key], record[_ITEMS])
        self.spans.clear()

    # -- derived figures ---------------------------------------------------------

    def _keys(self, *suffixes: str) -> List[str]:
        return [key for key in self.keys if key.endswith(suffixes)]

    def count(self, *suffixes: str) -> int:
        return sum(self.calls[key] for key in self._keys(*suffixes))

    def items_of(self, *suffixes: str) -> int:
        return sum(self.items[key] for key in self._keys(*suffixes))

    def bad_of(self, *suffixes: str) -> int:
        return sum(self.bad[key] for key in self._keys(*suffixes))

    def total_ms(self, *suffixes: str) -> float:
        return sum(self.inclusive_ns[key] for key in self._keys(*suffixes)) / 1e6

    def mean_us(self, *suffixes: str, per_item: bool = False) -> float:
        """Mean inclusive microseconds per outermost call (or per item)."""
        count = self.items_of(*suffixes) if per_item else self.count(*suffixes)
        return self.total_ms(*suffixes) * 1000.0 / count if count else 0.0

    def layer_shares(self, busy_s: float) -> Dict[str, float]:
        """Self-time share of busy wall time per layer, plus the harness."""
        busy_ns = busy_s * 1e9
        shares = {
            layer: (self.layer_self_ns[layer] / busy_ns if busy_ns else 0.0)
            for layer in self.layers
        }
        shares["harness"] = (
            (busy_ns - self.spanned_ns) / busy_ns if busy_ns else 0.0
        )
        return shares


def percentile(samples: List[float], p: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def layer_metrics(
    tracer: LayerTracer, traced: List[object], untraced: List[object]
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics from the traced rounds.

    Returns ``(metrics, extra)``: ``metrics`` are the per-layer metrics
    every workload reports; ``extra`` holds the time-valued figures of
    layers that some workloads never enter, printed by name only.
    """
    decided = sum(r.decided for r in traced) or 1
    submitted = sum(r.submitted for r in traced) or 1
    busy_s = sum(r.busy_s for r in traced)
    shares = tracer.layer_shares(busy_s)
    services = list(tracer.instances["services"].values())
    composers = list(tracer.instances["composers"].values())
    front_caches = [s.admission.front_cache for s in services if s.admission.front_cache]
    front_hits = sum(cache.hits for cache in front_caches)
    front_misses = sum(cache.misses for cache in front_caches)
    compose_hits = sum(c.cache_hits for c in composers)
    compose_misses = sum(c.cache_misses for c in composers)
    waits: List[float] = []
    for service in services:
        waits.extend(service.metrics.stage("queue_wait_ms").iter_samples())
    late = [sample for r in traced for sample in r.late_ms]

    def control_total(counter: str) -> int:
        return sum(c.registry.counter(counter).value for c in tracer.controllers)

    prepare = ("ReservationLedger.prepare", "ReservationLedger.prepare_many")
    commit = ("ReservationLedger.commit", "ReservationLedger.commit_many")
    batches = tracer.count("BatchingDomainService.process_batch")
    empty_batches = tracer.bad_of("BatchingDomainService.process_batch")
    plans = tracer.count("ServiceConfigurator.plan")
    distributes = tracer.count("ServiceDistributor.distribute")
    untraced_decided = sum(r.decided for r in untraced)
    untraced_busy_per_req = (
        sum(r.busy_s for r in untraced) / untraced_decided if untraced_decided else 0.0
    )

    metrics = {
        "cluster.load_score_per_req": tracer.count(".load_score") / decided,
        "cluster.self_share": shares["cluster"],
        "ledger.prepare_us": tracer.mean_us(*prepare, per_item=True),
        "ledger.commit_us": tracer.mean_us(*commit, per_item=True),
        "ledger.release_us": tracer.mean_us("ReservationLedger.release"),
        "ledger.environment_per_req": tracer.count("ReservationLedger.environment") / decided,
        "ledger.utilization_per_req": tracer.count("ReservationLedger.utilization") / decided,
        "ledger.conflict_ratio": _ratio(
            tracer.bad_of(*prepare) + tracer.bad_of(*commit), tracer.items_of(*prepare)
        ),
        "ledger.self_share": shares["ledger"],
        "batching.batch_size_mean": _ratio(
            tracer.items_of("BatchingDomainService.process_batch"),
            batches - empty_batches,
        ),
        "batching.self_share": shares["batching"],
        "queue.depth_max": float(tracer.max_items["repro.server.service.DomainConfigurationService.submit"]),
        "queue.shed_share": sum(r.shed for r in traced) / submitted,
        "queue.wait_p50_ms": percentile(waits, 50),
        "queue.wait_p99_ms": percentile(waits, 99),
        "queue.self_share": shares["queue"],
        "admission.front_cache_hit_ratio": _ratio(front_hits, front_hits + front_misses),
        "admission.conflict_retries_per_req": sum(
            s.metrics.count("conflict_retries") for s in services
        ) / decided,
        "admission.self_share": shares["admission"],
        "runtime.plans_per_req": plans / decided,
        "runtime.plan_success_ratio": _ratio(
            plans - tracer.bad_of("ServiceConfigurator.plan"), plans
        ),
        "runtime.deploy_us": tracer.mean_us("Deployer.deploy"),
        "runtime.stop_us": tracer.mean_us("ApplicationSession.stop"),
        "runtime.self_share": shares["runtime"],
        "composition.compose_us": tracer.mean_us("ServiceComposer.compose"),
        "composition.calls_per_req": tracer.count("ServiceComposer.compose") / decided,
        "composition.cache_hit_ratio": _ratio(compose_hits, compose_hits + compose_misses),
        "composition.self_share": shares["composition"],
        "discovery.discover_us": tracer.mean_us("DiscoveryService.discover"),
        "discovery.queries_per_req": tracer.count("DiscoveryService.discover") / decided,
        "discovery.self_share": shares["discovery"],
        "distribution.distribute_us": tracer.mean_us("ServiceDistributor.distribute"),
        "distribution.calls_per_req": distributes / decided,
        "distribution.infeasible_ratio": _ratio(
            tracer.bad_of("ServiceDistributor.distribute"), distributes
        ),
        "distribution.self_share": shares["distribution"],
        "control.forecasts_per_req": control_total("control.forecasts") / submitted,
        "control.actuations": control_total("control.actuations") / max(1, len(traced)),
        "control.self_share": shares["control"],
        "sim.events_per_req": tracer.count("Simulator.step") / decided,
        "sim.self_share": shares["sim"],
        "harness.self_share": shares["harness"],
        # Traced over untraced busy wall time per decided request, minus 1.
        "trace.overhead": (
            busy_s / decided / untraced_busy_per_req - 1.0 if untraced_busy_per_req else 0.0
        ),
    }
    extra = {
        "cluster.submit_us": tracer.mean_us("DomainCluster.submit"),
        "cluster.route_us": tracer.mean_us(".route"),
        "batching.busy_ms_per_req": tracer.layer_busy_ns["batching"] / 1e6 / decided,
        "queue.wait_samples": float(len(waits)),
        "admission.busy_ms_per_req": tracer.layer_busy_ns["admission"] / 1e6 / decided,
        "admission.probe_ms_per_req": tracer.total_ms("AdmissionController.class_points") / decided,
        "harness.late_p99_ms": percentile(late, 99),
        "layer_share_sum": sum(shares.values()),
    }
    return metrics, extra


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
