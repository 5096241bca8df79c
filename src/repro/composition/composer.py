"""The service composer: the four-step composition protocol (Section 3.2).

1. acquire the abstract service graph;
2. discover service instances in the current environment;
3. check QoS consistencies and coordinate ad-hoc interactions (the OC
   algorithm with automatic correction); missing-service handling: drop
   optional services, recursively compose mandatory ones (depth ≤ 2), or
   report to the user;
4. generate the QoS-consistent service graph for the distribution tier.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.composition.corrections import CorrectionPolicy
from repro.composition.ordered_coordination import OCReport, ordered_coordination
from repro.composition.recursion import (
    DEFAULT_RECURSION_LIMIT,
    DecompositionRegistry,
)
from repro.discovery.matching import DiscoveryContext
from repro.discovery.registry import ServiceDescription
from repro.discovery.service import DiscoveryService
from repro.graph.abstract import AbstractServiceGraph
from repro.graph.service_graph import ServiceEdge, ServiceGraph
from repro.observability.tracing import get_tracer
from repro.qos.vectors import QoSVector


@dataclass(frozen=True)
class CompositionRequest:
    """One application configuration request presented to the composer.

    ``roles`` resolves symbolic pin constraints; the ``client`` role
    defaults to ``client_device_id`` when not given explicitly.
    """

    abstract_graph: AbstractServiceGraph
    user_qos: QoSVector = QoSVector()
    client_device_id: Optional[str] = None
    client_device_class: Optional[str] = None
    preferred_devices: Tuple[str, ...] = ()
    roles: Mapping[str, str] = field(default_factory=dict)

    def resolved_roles(self) -> Dict[str, str]:
        roles = dict(self.roles)
        if "client" not in roles and self.client_device_id is not None:
            roles["client"] = self.client_device_id
        return roles

    def discovery_context(self) -> DiscoveryContext:
        return DiscoveryContext(
            client_device_id=self.client_device_id,
            client_device_class=self.client_device_class,
            user_qos=self.user_qos,
            preferred_devices=self.preferred_devices,
        )


@dataclass
class CompositionResult:
    """Outcome of one composition attempt.

    ``success`` means every mandatory service was resolved *and* the OC
    algorithm left no unresolved inconsistency; ``graph`` is then the
    QoS-consistent service graph for the distribution tier. Failure keeps
    the partial graph (possibly inconsistent) for diagnostics. The graph
    is frozen and may be shared by every request of its class: mutate a
    :meth:`~repro.graph.service_graph.ServiceGraph.copy`.

    - ``dropped_optional`` — optional specs neglected for lack of instances;
    - ``missing`` — mandatory specs that could not be resolved (the
      user-notification path);
    - ``expanded`` — specs substituted by recursive composition, mapped to
      the spec ids of their substitutes;
    - ``oc_report`` — the consistency-check/correction report;
    - ``discovery_queries`` — lookups issued, an overhead measure.
    """

    graph: Optional[ServiceGraph]
    success: bool
    dropped_optional: List[str] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    expanded: Dict[str, List[str]] = field(default_factory=dict)
    oc_report: OCReport = field(default_factory=OCReport)
    discovery_queries: int = 0

    def work_units(self) -> int:
        """Abstract work measure for the overhead model (queries + checks)."""
        return self.discovery_queries + self.oc_report.checked_edges


class ServiceComposer:
    """Composes QoS-consistent service graphs from abstract descriptions.

    The composer is re-invoked "whenever some significant changes are
    detected during runtime" — it is stateless across calls except for the
    decomposition registry and correction policy it is configured with,
    plus a composition cache: composition is deterministic given the
    request and the registry contents, so equal requests against an
    unchanged registry (the common case in a load sweep, where many
    sessions open the same application) reuse the previous result instead
    of re-running discovery and the OC algorithm. The cache keys on the
    abstract graph's :attr:`~AbstractServiceGraph.structure_key`, not on
    the graph object: request builders make a fresh graph per request, and
    every request of one class shares an entry — and its frozen graph,
    which a hit returns as is rather than copying.

    ``cache_size`` bounds the LRU composition cache (0 disables it). The
    cache is bypassed when a profiler is attached — measured estimates may
    change between calls without touching the registry.
    """

    def __init__(
        self,
        discovery: DiscoveryService,
        policy: Optional[CorrectionPolicy] = None,
        decompositions: Optional[DecompositionRegistry] = None,
        recursion_limit: int = DEFAULT_RECURSION_LIMIT,
        profiler=None,
        cache_size: int = 64,
    ) -> None:
        if recursion_limit < 0:
            raise ValueError("recursion limit cannot be negative")
        if cache_size < 0:
            raise ValueError("cache size cannot be negative")
        self.discovery = discovery
        self.policy = policy or CorrectionPolicy()
        self.decompositions = decompositions or DecompositionRegistry()
        self.recursion_limit = recursion_limit
        # Optional OnlineProfiler (Section 3.1's profiling assumption): a
        # confident measured estimate overrides a template's declared R
        # vector, so distribution plans with observed demand.
        self.profiler = profiler
        self.cache_size = cache_size
        self._cache: "OrderedDict[tuple, CompositionResult]" = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- protocol --------------------------------------------------------------

    def compose(self, request: CompositionRequest) -> CompositionResult:
        """Run the four-step protocol for one request."""
        with get_tracer().span(
            "composition.compose", graph=request.abstract_graph.name
        ) as span:
            key = self._cache_key(request)
            if key is not None:
                cached = self._cache.get(key)
                if cached is not None:
                    self._cache.move_to_end(key)
                    self.cache_hits += 1
                    span.set("cache_hit", True).set("success", cached.success)
                    return _clone_result(cached)
                self.cache_misses += 1
            result = self._compose_uncached(request)
            span.set("cache_hit", False).set("success", result.success)
            if result.graph is not None:
                result.graph.freeze()
            if key is not None:
                self._cache[key] = result
                if len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
            return _clone_result(result)

    def _cache_key(self, request: CompositionRequest) -> Optional[tuple]:
        """Cache key for a request, or None when caching does not apply."""
        if self.cache_size == 0 or self.profiler is not None:
            return None
        registry_version = getattr(self.discovery, "registry_version", None)
        if registry_version is None:
            # A discovery backend without a content-version token cannot be
            # invalidated safely; always compose cold.
            return None
        return (
            request.abstract_graph.structure_key,
            request.user_qos,
            request.client_device_id,
            request.client_device_class,
            request.preferred_devices,
            tuple(sorted(request.resolved_roles().items())),
            registry_version,
        )

    def _compose_uncached(self, request: CompositionRequest) -> CompositionResult:
        # Step 1: acquire (and validate) the abstract service graph.
        request.abstract_graph.validate()
        context = request.discovery_context()
        queries_before = self.discovery.query_count

        # Step 2: discover instances, handling failures by dropping
        # optional services or recursively expanding mandatory ones.
        work_graph = request.abstract_graph
        discovered: Dict[str, ServiceDescription] = {}
        dropped: List[str] = []
        missing: List[str] = []
        expanded: Dict[str, List[str]] = {}
        depth: Dict[str, int] = {}

        while True:
            pending = [
                spec
                for spec in work_graph.specs()
                if spec.spec_id not in discovered and spec.spec_id not in missing
            ]
            if not pending:
                break
            spec = pending[0]
            description = self.discovery.discover(spec, context)
            if description is not None:
                discovered[spec.spec_id] = description
                continue
            if spec.optional:
                work_graph = _without_spec(work_graph, spec.spec_id)
                dropped.append(spec.spec_id)
                continue
            spec_depth = depth.get(spec.spec_id, 0)
            if spec_depth < self.recursion_limit:
                expansion = self.decompositions.expand(work_graph, spec.spec_id)
                if expansion is not None:
                    work_graph, new_ids = expansion
                    expanded[spec.spec_id] = new_ids
                    for new_id in new_ids:
                        depth[new_id] = spec_depth + 1
                    continue
            missing.append(spec.spec_id)

        discovery_queries = self.discovery.query_count - queries_before
        if missing:
            return CompositionResult(
                graph=None,
                success=False,
                dropped_optional=dropped,
                missing=missing,
                expanded=expanded,
                discovery_queries=discovery_queries,
            )

        # Step 3a: instantiate the concrete service graph.
        graph = self._instantiate(work_graph, discovered, request)

        # Step 3b: check QoS consistencies and coordinate interactions.
        report = ordered_coordination(graph, self.policy)

        # Step 4: the consistent graph goes to the distribution tier.
        return CompositionResult(
            graph=graph,
            success=report.consistent,
            dropped_optional=dropped,
            missing=[],
            expanded=expanded,
            oc_report=report,
            discovery_queries=discovery_queries,
        )

    # -- internals ----------------------------------------------------------------

    def _instantiate(
        self,
        work_graph: AbstractServiceGraph,
        discovered: Dict[str, ServiceDescription],
        request: CompositionRequest,
    ) -> ServiceGraph:
        roles = request.resolved_roles()
        graph = ServiceGraph(name=work_graph.name)
        for spec in work_graph.specs():
            description = discovered[spec.spec_id]
            component = description.instantiate(spec.spec_id)
            component = self._refine_resources(component)
            pin = component.pinned_to
            if spec.pin is not None:
                pin = spec.pin.resolve(roles)
            elif description.hosted_on is not None:
                # A hosted (non-downloadable) instance runs where it lives.
                pin = description.hosted_on
            graph.add_component(component.with_pin(pin))
        for edge in work_graph.edges():
            graph.add_edge(edge)
        return graph

    def _refine_resources(self, component):
        """Swap in the profiler's measured R vector when it is confident."""
        if self.profiler is None:
            return component
        estimate = self.profiler.estimate(component.service_type)
        if estimate is None or not estimate.confident:
            return component
        return component.with_resources(estimate.requirements)


def _clone_result(result: CompositionResult) -> CompositionResult:
    """Copy a composition result so cached state never leaks to callers.

    The mutable containers are copied; the frozen graph and the
    ``oc_report`` are shared as read-only records. ``discovery_queries``
    is preserved as the cold run's count so the modeled composition
    overhead stays deterministic whether or not a request hit the cache.
    """
    return CompositionResult(
        graph=result.graph,
        success=result.success,
        dropped_optional=list(result.dropped_optional),
        missing=list(result.missing),
        expanded={k: list(v) for k, v in result.expanded.items()},
        oc_report=result.oc_report,
        discovery_queries=result.discovery_queries,
    )


def _without_spec(graph: AbstractServiceGraph, spec_id: str) -> AbstractServiceGraph:
    """Drop a spec, bridging its predecessors to its successors.

    Optional services are in-stream enhancers; when one is neglected the
    stream flows directly from its upstreams to its downstreams, keeping
    the incoming edge's throughput estimate.
    """
    result = AbstractServiceGraph(name=graph.name)
    for spec in graph.specs():
        if spec.spec_id != spec_id:
            result.add_spec(spec)
    incoming = [e for e in graph.edges() if e.target == spec_id]
    outgoing = [e for e in graph.edges() if e.source == spec_id]
    for edge in graph.edges():
        if edge.source == spec_id or edge.target == spec_id:
            continue
        result.add_edge(edge)
    for upstream in incoming:
        for downstream in outgoing:
            if upstream.source == downstream.target:
                continue
            bridged = ServiceEdge(
                upstream.source, downstream.target, upstream.throughput_mbps
            )
            if not any(
                e.source == bridged.source and e.target == bridged.target
                for e in result.edges()
            ):
                result.add_edge(bridged)
    return result
