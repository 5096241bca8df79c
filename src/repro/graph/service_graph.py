"""Concrete service graphs (Section 2).

A :class:`ServiceGraph` is a DAG whose nodes are :class:`ServiceComponent`
instances — autonomous services performing operations (transformation,
synchronisation, filtering) on the data stream passing through them — and
whose edges carry the communication throughput ``c(u, v)`` between two
connected components.

Components are immutable; the graph replaces a node's payload when the
composition tier adjusts its QoS (see
:mod:`repro.composition.ordered_coordination`). Once composition finishes
the graph is frozen (:meth:`ServiceGraph.freeze`): every request of one
class then shares it, and each graph derived from it (a degraded rung's
demand-scaled copy) is built once and frozen in turn.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Set,
    Tuple,
)

from repro.qos.vectors import EMPTY_QOS, QoSVector
from repro.resources.vectors import ResourceVector


class CycleError(ValueError):
    """Raised when an operation requires a DAG but the graph has a cycle."""


class GraphValidationError(ValueError):
    """Raised when a graph fails structural validation."""


class FrozenGraphError(RuntimeError):
    """Raised when a frozen (shared) graph is asked to mutate."""


@dataclass(frozen=True)
class ServiceComponent:
    """One autonomous service component.

    Attributes follow the application service model of Section 2:

    - ``qos_input`` — the input QoS requirement vector ``Qin``;
    - ``qos_output`` — the produced output QoS vector ``Qout``;
    - ``resources`` — the end-system resource requirement vector ``R``
      (normalised to the benchmark machine);
    - ``adjustable_outputs`` — output parameters that can be reconfigured at
      runtime, within the envelope given by ``output_capabilities`` (used by
      the OC algorithm's automatic correction);
    - ``passthrough`` — parameters for which the component merely forwards
      what it receives, so adjusting its output implies the same adjustment
      of its input requirement (the upstream propagation step of the OC
      algorithm);
    - ``pinned_to`` — device id this component must run on (e.g. the display
      service must run on the client device), or ``None`` when it can be
      instantiated anywhere;
    - ``optional`` — whether the abstract graph marked this service as
      merely quality-enhancing;
    - ``code_size_kb`` / ``state_size_kb`` — sizes used by the dynamic
      downloading and state-handoff cost models.
    """

    component_id: str
    service_type: str
    qos_input: QoSVector = EMPTY_QOS
    qos_output: QoSVector = EMPTY_QOS
    resources: ResourceVector = field(default_factory=ResourceVector)
    adjustable_outputs: FrozenSet[str] = frozenset()
    output_capabilities: QoSVector = EMPTY_QOS
    passthrough: FrozenSet[str] = frozenset()
    pinned_to: Optional[str] = None
    optional: bool = False
    code_size_kb: float = 0.0
    state_size_kb: float = 0.0
    attributes: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.component_id:
            raise ValueError("component_id must be non-empty")
        if not self.service_type:
            raise ValueError("service_type must be non-empty")
        missing = self.adjustable_outputs - set(self.output_capabilities.names())
        if missing:
            raise ValueError(
                "adjustable outputs without a declared capability envelope: "
                f"{sorted(missing)}"
            )

    def with_qos(
        self,
        qos_input: Optional[QoSVector] = None,
        qos_output: Optional[QoSVector] = None,
    ) -> "ServiceComponent":
        """Return a copy with replaced input and/or output QoS vectors."""
        return dataclasses.replace(
            self,
            qos_input=self.qos_input if qos_input is None else qos_input,
            qos_output=self.qos_output if qos_output is None else qos_output,
        )

    def with_pin(self, device_id: Optional[str]) -> "ServiceComponent":
        """Return a copy pinned to (or released from) a device."""
        return dataclasses.replace(self, pinned_to=device_id)

    def with_resources(self, resources: ResourceVector) -> "ServiceComponent":
        """Return a copy with a replaced requirement vector ``R``.

        A trusted copy: ``__post_init__`` never reads ``R``, so the field
        is swapped without re-running ``dataclasses.replace`` and its
        validation (this sits on every degraded plan's path).
        """
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.__dict__["resources"] = resources
        return clone

    def renamed(self, component_id: str) -> "ServiceComponent":
        """Return a copy with a different component id."""
        return dataclasses.replace(self, component_id=component_id)

    def attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Look up a free-form attribute by name."""
        for key, value in self.attributes:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class ServiceEdge:
    """A directed connection between two components.

    ``throughput_mbps`` is the paper's edge weight ``c(u, v)``: the
    communication throughput required on the stream from ``source`` to
    ``target``. When the edge crosses a device boundary in a k-cut, this
    throughput consumes end-to-end network bandwidth ``b(i, j)``.
    """

    source: str
    target: str
    throughput_mbps: float = 0.0

    def __post_init__(self) -> None:
        if self.source == self.target:
            raise ValueError(f"self-loop on {self.source!r} is not allowed")
        if self.throughput_mbps < 0:
            raise ValueError("edge throughput must be non-negative")

    @property
    def key(self) -> Tuple[str, str]:
        return (self.source, self.target)


class ServiceGraph:
    """A DAG of service components with throughput-weighted edges.

    Nodes are addressed by their ``component_id``. The graph enforces
    referential integrity (edges only between existing nodes, no duplicate
    ids) eagerly, and acyclicity lazily via :meth:`topological_order` /
    :meth:`validate` — the composition tier builds graphs incrementally and
    checks the completed graph once.
    """

    def __init__(
        self,
        components: Iterable[ServiceComponent] = (),
        edges: Iterable[ServiceEdge] = (),
        name: str = "service-graph",
    ) -> None:
        self.name = name
        self._components: Dict[str, ServiceComponent] = {}
        self._edges: Dict[Tuple[str, str], ServiceEdge] = {}
        self._succ: Dict[str, Set[str]] = {}
        self._pred: Dict[str, Set[str]] = {}
        # Monotonic change counter: bumped on every mutation, including
        # payload replacement. External caches (Assignment's cut-derived
        # quantities, the composer's memoized snapshots) key on it.
        self._version = 0
        # Memoized structure snapshots, invalidated on structural mutation
        # only — payload swaps keep them, so repeated OC passes that merely
        # adjust QoS reuse the same topological order and adjacency.
        self._topo_cache: Optional[List[str]] = None
        self._succ_cache: Optional[Dict[str, List[str]]] = None
        self._pred_cache: Optional[Dict[str, List[str]]] = None
        # Set by freeze(): graphs derived from this one, by key (None while
        # the graph is mutable).
        self._derived: Optional[Dict[object, "ServiceGraph"]] = None
        for component in components:
            self.add_component(component)
        for edge in edges:
            self.add_edge(edge)

    @property
    def version(self) -> int:
        """Change counter: increases on any mutation of the graph."""
        return self._version

    @property
    def frozen(self) -> bool:
        """True once :meth:`freeze` ran: every mutator then raises."""
        return self._derived is not None

    def _touch(self, structural: bool = True) -> None:
        if self._derived is not None:
            raise FrozenGraphError(
                f"service graph {self.name!r} is frozen; mutate a copy()"
            )
        self._version += 1
        if structural:
            self._topo_cache = None
            self._succ_cache = None
            self._pred_cache = None

    # -- construction --------------------------------------------------------

    def add_component(self, component: ServiceComponent) -> None:
        """Add a node; raises on duplicate component ids."""
        if component.component_id in self._components:
            raise GraphValidationError(
                f"duplicate component id {component.component_id!r}"
            )
        self._touch()
        self._components[component.component_id] = component
        self._succ[component.component_id] = set()
        self._pred[component.component_id] = set()

    def add_edge(self, edge: ServiceEdge) -> None:
        """Add an edge between existing nodes; raises on duplicates."""
        for endpoint in (edge.source, edge.target):
            if endpoint not in self._components:
                raise GraphValidationError(f"unknown component {endpoint!r}")
        if edge.key in self._edges:
            raise GraphValidationError(
                f"duplicate edge {edge.source!r} -> {edge.target!r}"
            )
        self._touch()
        self._edges[edge.key] = edge
        self._succ[edge.source].add(edge.target)
        self._pred[edge.target].add(edge.source)

    def connect(self, source: str, target: str, throughput_mbps: float = 0.0) -> None:
        """Convenience wrapper around :meth:`add_edge`."""
        self.add_edge(ServiceEdge(source, target, throughput_mbps))

    def remove_component(self, component_id: str) -> None:
        """Remove a node and all incident edges."""
        if component_id not in self._components:
            raise KeyError(component_id)
        self._touch()
        for other in list(self._succ[component_id]):
            del self._edges[(component_id, other)]
            self._pred[other].discard(component_id)
        for other in list(self._pred[component_id]):
            del self._edges[(other, component_id)]
            self._succ[other].discard(component_id)
        del self._succ[component_id]
        del self._pred[component_id]
        del self._components[component_id]

    def remove_edge(self, source: str, target: str) -> None:
        """Remove one edge."""
        if (source, target) not in self._edges:
            raise KeyError((source, target))
        self._touch()
        del self._edges[(source, target)]
        self._succ[source].discard(target)
        self._pred[target].discard(source)

    def update_component(self, component: ServiceComponent) -> None:
        """Replace the payload of an existing node (same id).

        Bumps :attr:`version` (the payload feeds resource caches) but keeps
        the memoized structure snapshots — the topology is unchanged.
        """
        if component.component_id not in self._components:
            raise KeyError(component.component_id)
        self._touch(structural=False)
        self._components[component.component_id] = component

    def insert_between(
        self,
        source: str,
        target: str,
        component: ServiceComponent,
        inbound_throughput_mbps: Optional[float] = None,
        outbound_throughput_mbps: Optional[float] = None,
    ) -> None:
        """Splice a component into an existing edge.

        Used by automatic correction to insert a transcoder or buffer on the
        stream between two inconsistent components. The original edge's
        throughput is kept on both halves unless overridden (a transcoder
        may shrink the downstream throughput).
        """
        original = self._edges.get((source, target))
        if original is None:
            raise KeyError((source, target))
        self.add_component(component)
        self.remove_edge(source, target)
        inbound = (
            original.throughput_mbps
            if inbound_throughput_mbps is None
            else inbound_throughput_mbps
        )
        outbound = (
            original.throughput_mbps
            if outbound_throughput_mbps is None
            else outbound_throughput_mbps
        )
        self.add_edge(ServiceEdge(source, component.component_id, inbound))
        self.add_edge(ServiceEdge(component.component_id, target, outbound))

    # -- queries ---------------------------------------------------------------

    def __contains__(self, component_id: str) -> bool:
        return component_id in self._components

    def __len__(self) -> int:
        return len(self._components)

    def __iter__(self) -> Iterator[ServiceComponent]:
        return iter(self._components.values())

    def component(self, component_id: str) -> ServiceComponent:
        """Return the component with the given id (KeyError if absent)."""
        return self._components[component_id]

    def components(self) -> List[ServiceComponent]:
        """Return all components, in insertion order."""
        return list(self._components.values())

    def component_ids(self) -> List[str]:
        """Return all component ids, in insertion order."""
        return list(self._components.keys())

    def edges(self) -> List[ServiceEdge]:
        """Return all edges, in insertion order."""
        return list(self._edges.values())

    def edge(self, source: str, target: str) -> ServiceEdge:
        """Return the edge from ``source`` to ``target`` (KeyError if absent)."""
        return self._edges[(source, target)]

    def has_edge(self, source: str, target: str) -> bool:
        return (source, target) in self._edges

    def successors(self, component_id: str) -> List[str]:
        """Return ids of direct successors, sorted for determinism.

        The returned list is a memoized snapshot shared between calls and
        between structural copies (see :meth:`copy`) — treat it as
        read-only.
        """
        if self._succ_cache is None:
            self._succ_cache = {
                cid: sorted(targets) for cid, targets in self._succ.items()
            }
        return self._succ_cache[component_id]

    def predecessors(self, component_id: str) -> List[str]:
        """Return ids of direct predecessors, sorted for determinism.

        The returned list is a memoized snapshot shared between calls and
        between structural copies (see :meth:`copy`) — treat it as
        read-only.
        """
        if self._pred_cache is None:
            self._pred_cache = {
                cid: sorted(sources) for cid, sources in self._pred.items()
            }
        return self._pred_cache[component_id]

    def out_degree(self, component_id: str) -> int:
        return len(self._succ[component_id])

    def in_degree(self, component_id: str) -> int:
        return len(self._pred[component_id])

    def sources(self) -> List[str]:
        """Nodes with no predecessors (stream producers)."""
        return [cid for cid in self._components if not self._pred[cid]]

    def sinks(self) -> List[str]:
        """Nodes with no successors (typically client-side services)."""
        return [cid for cid in self._components if not self._succ[cid]]

    def total_resources(self) -> ResourceVector:
        """Sum of all components' requirement vectors (Definition 3.1)."""
        return ResourceVector.sum(c.resources for c in self._components.values())

    def total_throughput(self) -> float:
        """Sum of all edge throughputs."""
        return sum(e.throughput_mbps for e in self._edges.values())

    # -- DAG algorithms ----------------------------------------------------------

    def topological_order(self) -> List[str]:
        """Kahn's algorithm; raises :class:`CycleError` on cycles.

        Ties are broken by insertion order, so the result is deterministic
        for a deterministically-built graph. The order is memoized until
        the next structural mutation; callers receive a fresh copy.
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        in_degree = {cid: len(self._pred[cid]) for cid in self._components}
        ready = [cid for cid in self._components if in_degree[cid] == 0]
        order: List[str] = []
        while ready:
            current = ready.pop(0)
            order.append(current)
            for succ in sorted(self._succ[current]):
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self._components):
            stuck = sorted(set(self._components) - set(order))
            raise CycleError(f"service graph has a cycle involving {stuck}")
        self._topo_cache = order
        return list(order)

    def is_dag(self) -> bool:
        """True when the graph is acyclic."""
        try:
            self.topological_order()
        except CycleError:
            return False
        return True

    def is_linear(self) -> bool:
        """True when the graph is a simple chain (the limitation of prior work).

        A linear graph has exactly one source, one sink, and every node has
        in- and out-degree at most 1.
        """
        if not self._components:
            return True
        return all(
            len(self._succ[cid]) <= 1 and len(self._pred[cid]) <= 1
            for cid in self._components
        ) and self.is_dag()

    def reachable_from(self, component_id: str) -> Set[str]:
        """Return ids reachable from a node (excluding the node itself)."""
        seen: Set[str] = set()
        stack = [component_id]
        while stack:
            current = stack.pop()
            for succ in self._succ[current]:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    def validate(self) -> None:
        """Raise :class:`GraphValidationError` on structural problems.

        Checks acyclicity and non-emptiness; referential integrity is
        enforced eagerly by construction.
        """
        if not self._components:
            raise GraphValidationError("service graph has no components")
        try:
            self.topological_order()
        except CycleError as exc:
            raise GraphValidationError(str(exc)) from exc

    def freeze(self) -> None:
        """Make the graph immutable so callers can share it (idempotent).

        Builds the memoized adjacency and topological order first, so
        readers sharing the graph never race to fill them, and copies
        inherit them. Every mutator raises :class:`FrozenGraphError`
        afterwards; :meth:`copy` and :meth:`map_payloads` still return
        mutable graphs.
        """
        if self._derived is None:
            if self._components:
                first = next(iter(self._components))
                self.successors(first)
                self.predecessors(first)
            self.is_dag()
            self._derived = {}

    def derived(
        self, key: object, build: Callable[["ServiceGraph"], "ServiceGraph"]
    ) -> "ServiceGraph":
        """``build(self)``, built once per ``key`` while this graph is frozen.

        A frozen graph never changes, so neither does a graph derived from
        it: the result is frozen and memoized on this graph, and lives as
        long as it does. Racing threads may both build, but all of them
        get the one graph the memo kept. A mutable graph builds anew on
        every call.
        """
        memo = self._derived
        if memo is None:
            return build(self)
        graph = memo.get(key)
        if graph is None:
            graph = build(self)
            graph.freeze()
            graph = memo.setdefault(key, graph)
        return graph

    def copy(self, name: Optional[str] = None) -> "ServiceGraph":
        """Return an independent structural copy (components are immutable).

        The copy shares the component and edge objects and copies only the
        mutable containers. It inherits the memoized topological order and
        adjacency as they are: :meth:`successors`/:meth:`predecessors`
        lists are read-only, :meth:`topological_order` hands out copies,
        and a structural mutation drops a graph's memos rather than editing
        them, so neither graph can change what the other sees. The copy's
        :attr:`version` is what rebuilding it edge by edge would give.
        """
        clone = self.map_payloads()
        if name is not None:
            clone.name = name
        return clone

    def map_payloads(
        self,
        component: Optional[Callable[[ServiceComponent], ServiceComponent]] = None,
        edge: Optional[Callable[[ServiceEdge], ServiceEdge]] = None,
    ) -> "ServiceGraph":
        """Return a structural copy whose payloads pass through the maps.

        Like :meth:`copy`, but each component (each edge) is replaced by
        ``component(c)`` (``edge(e)``). The maps may change payloads only:
        a mapped component keeps its id and a mapped edge its endpoints,
        because the copy inherits this graph's structure instead of
        rebuilding it.
        """
        if component is None:
            components = dict(self._components)
        else:
            components = {
                cid: component(original)
                for cid, original in self._components.items()
            }
            for cid, mapped in components.items():
                if mapped.component_id != cid:
                    raise GraphValidationError(
                        f"payload map renamed {cid!r} to {mapped.component_id!r}"
                    )
        if edge is None:
            edges = dict(self._edges)
        else:
            edges = {key: edge(original) for key, original in self._edges.items()}
            for key, mapped_edge in edges.items():
                if mapped_edge.key != key:
                    raise GraphValidationError(
                        f"payload map moved edge {key!r} to {mapped_edge.key!r}"
                    )
        clone = object.__new__(type(self))
        clone.name = self.name
        clone._components = components
        clone._edges = edges
        clone._succ = {cid: set(targets) for cid, targets in self._succ.items()}
        clone._pred = {cid: set(sources) for cid, sources in self._pred.items()}
        clone._version = len(components) + len(edges)
        clone._topo_cache = self._topo_cache
        clone._succ_cache = self._succ_cache
        clone._pred_cache = self._pred_cache
        clone._derived = None
        return clone

    def __repr__(self) -> str:
        return (
            f"ServiceGraph(name={self.name!r}, components={len(self._components)}, "
            f"edges={len(self._edges)})"
        )
