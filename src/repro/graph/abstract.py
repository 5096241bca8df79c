"""Abstract service graphs (Section 3.2, step 1).

Developers specify ubiquitous applications "at a high level of abstraction
in order to accommodate unexpected runtime variations": instead of naming
concrete components, the *abstract service graph* describes each needed
service abstractly (its type, desired attributes and QoS), the interactions
between services, and which services are optional quality enhancers.

The service composer instantiates an abstract graph against the current
environment via the discovery service.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.qos.vectors import EMPTY_QOS, QoSVector
from repro.graph.service_graph import GraphValidationError, ServiceEdge


@dataclass(frozen=True)
class PinConstraint:
    """Where a service must be instantiated.

    Either an explicit ``device_id`` or a symbolic ``role`` resolved at
    configuration time — the canonical example being ``role="client"`` for
    the display/player service, which must run on whatever device the user
    is currently holding.
    """

    device_id: Optional[str] = None
    role: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.device_id is None) == (self.role is None):
            raise ValueError("exactly one of device_id or role must be given")

    def resolve(self, roles: Mapping[str, str]) -> str:
        """Return the concrete device id under a role→device mapping."""
        if self.device_id is not None:
            return self.device_id
        device = roles.get(self.role or "")
        if device is None:
            raise KeyError(f"no device bound to role {self.role!r}")
        return device


CLIENT_PIN = PinConstraint(role="client")


@dataclass(frozen=True)
class AbstractComponentSpec:
    """Abstract description of one needed service.

    - ``service_type`` — the abstract service category the discovery
      service matches on (e.g. ``"audio_player"``);
    - ``attributes`` — desired free-form attributes, scored softly by the
      matcher (a returned instance is "the one closest to the abstract
      description", not necessarily an exact match);
    - ``required_output`` — output QoS the user/application wants from this
      service, matched softly as well;
    - ``optional`` — if True and no instance is discovered, the composer
      simply drops the service;
    - ``pin`` — placement constraint forwarded to the concrete component.
    """

    spec_id: str
    service_type: str
    attributes: Tuple[Tuple[str, str], ...] = ()
    required_output: QoSVector = EMPTY_QOS
    optional: bool = False
    pin: Optional[PinConstraint] = None

    def __post_init__(self) -> None:
        if not self.spec_id:
            raise ValueError("spec_id must be non-empty")
        if not self.service_type:
            raise ValueError("service_type must be non-empty")
        # Specs are hashed into their graph's structure key, so unhashable
        # attributes (a list of pairs, say) become a tuple of pairs.
        try:
            hash(self.attributes)
        except TypeError:
            object.__setattr__(
                self,
                "attributes",
                tuple((key, value) for key, value in self.attributes),
            )

    def attribute(self, name: str, default: Optional[str] = None) -> Optional[str]:
        """Look up a desired attribute by name."""
        for key, value in self.attributes:
            if key == name:
                return value
        return default


class StructureKey:
    """A hashable value key for an abstract graph's structure.

    Equal structures give equal keys whatever graph objects they came
    from. The hash is computed once: a plain tuple would re-hash every
    spec (and each spec's QoS vectors) on every dictionary lookup.
    """

    __slots__ = ("_value", "_hash")

    def __init__(self, value: tuple) -> None:
        self._value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, StructureKey):
            return NotImplemented
        return self._hash == other._hash and self._value == other._value

    def __repr__(self) -> str:
        return f"StructureKey({self._value!r})"


class AbstractServiceGraph:
    """A DAG of abstract component specs with estimated edge throughputs.

    Structured "in the same way as the service graph": nodes are abstract
    specs, edges carry the developer's throughput estimate for the stream
    between the two services (refined later from the discovered instances).
    """

    # The memoized structure key and the (version, name) it was built at.
    # Class-level defaults: a graph whose key is never read pays nothing.
    _structure_key: Optional[StructureKey] = None
    _structure_key_stamp: Tuple[int, str] = (-1, "")

    def __init__(
        self,
        specs: Iterable[AbstractComponentSpec] = (),
        edges: Iterable[ServiceEdge] = (),
        name: str = "abstract-graph",
    ) -> None:
        self.name = name
        self._specs: Dict[str, AbstractComponentSpec] = {}
        self._edges: Dict[Tuple[str, str], ServiceEdge] = {}
        self._version = 0
        for spec in specs:
            self.add_spec(spec)
        for edge in edges:
            self.add_edge(edge)

    @property
    def version(self) -> int:
        """Change counter: increases when a spec or edge is added.

        Specs and edges are immutable dataclasses, so structural additions
        are the only possible mutations; the counter tells
        :attr:`structure_key` when to rebuild.
        """
        return self._version

    @property
    def structure_key(self) -> StructureKey:
        """The graph's structure as a value: name, specs and edges in order.

        Two graphs with equal keys compose identically, so the composer's
        cache and the admission front cache key on this, not on the graph
        object. Built at first use and rebuilt only after the graph grows
        (or is renamed).
        """
        stamp = (self._version, self.name)
        if self._structure_key is None or stamp != self._structure_key_stamp:
            self._structure_key = StructureKey(
                (
                    self.name,
                    tuple(self._specs.values()),
                    tuple(self._edges.values()),
                )
            )
            self._structure_key_stamp = stamp
        return self._structure_key

    def copy(self) -> "AbstractServiceGraph":
        """Return an independent structural copy.

        The copy gets fresh spec and edge dicts over the same frozen specs
        and edges, and carries this graph's version and structure key (the
        *same* key object), so cache lookups with copies of one template
        take :class:`StructureKey`'s identity fast path. Growing the copy
        bumps its own version and rebuilds its own key; this graph and its
        other copies keep theirs.
        """
        clone = object.__new__(type(self))
        clone.name = self.name
        clone._specs = dict(self._specs)
        clone._edges = dict(self._edges)
        clone._version = self._version
        clone._structure_key = self.structure_key
        clone._structure_key_stamp = self._structure_key_stamp
        return clone

    def add_spec(self, spec: AbstractComponentSpec) -> None:
        """Add an abstract service spec; raises on duplicate ids."""
        if spec.spec_id in self._specs:
            raise GraphValidationError(f"duplicate spec id {spec.spec_id!r}")
        self._specs[spec.spec_id] = spec
        self._version += 1

    def add_edge(self, edge: ServiceEdge) -> None:
        """Connect two specs; raises on unknown endpoints or duplicates."""
        for endpoint in (edge.source, edge.target):
            if endpoint not in self._specs:
                raise GraphValidationError(f"unknown spec {endpoint!r}")
        if edge.key in self._edges:
            raise GraphValidationError(
                f"duplicate edge {edge.source!r} -> {edge.target!r}"
            )
        self._edges[edge.key] = edge
        self._version += 1

    def connect(self, source: str, target: str, throughput_mbps: float = 0.0) -> None:
        """Convenience wrapper around :meth:`add_edge`."""
        self.add_edge(ServiceEdge(source, target, throughput_mbps))

    def __len__(self) -> int:
        return len(self._specs)

    def __contains__(self, spec_id: str) -> bool:
        return spec_id in self._specs

    def __iter__(self) -> Iterator[AbstractComponentSpec]:
        return iter(self._specs.values())

    def spec(self, spec_id: str) -> AbstractComponentSpec:
        """Return the spec with the given id (KeyError if absent)."""
        return self._specs[spec_id]

    def specs(self) -> List[AbstractComponentSpec]:
        """Return all specs in insertion order."""
        return list(self._specs.values())

    def edges(self) -> List[ServiceEdge]:
        """Return all edges in insertion order."""
        return list(self._edges.values())

    def mandatory_specs(self) -> List[AbstractComponentSpec]:
        """Specs that must be discovered for the application to run."""
        return [s for s in self._specs.values() if not s.optional]

    def optional_specs(self) -> List[AbstractComponentSpec]:
        """Specs that merely enhance the application when present."""
        return [s for s in self._specs.values() if s.optional]

    def validate(self) -> None:
        """Raise :class:`GraphValidationError` on an empty or cyclic graph."""
        if not self._specs:
            raise GraphValidationError("abstract service graph has no specs")
        # Cycle check by Kahn's algorithm over the spec edges.
        in_degree = {sid: 0 for sid in self._specs}
        for source, target in self._edges:
            in_degree[target] += 1
        ready = [sid for sid, deg in in_degree.items() if deg == 0]
        visited = 0
        succ: Dict[str, Set[str]] = {sid: set() for sid in self._specs}
        for source, target in self._edges:
            succ[source].add(target)
        while ready:
            current = ready.pop()
            visited += 1
            for nxt in succ[current]:
                in_degree[nxt] -= 1
                if in_degree[nxt] == 0:
                    ready.append(nxt)
        if visited != len(self._specs):
            raise GraphValidationError("abstract service graph has a cycle")

    def __repr__(self) -> str:
        return (
            f"AbstractServiceGraph(name={self.name!r}, specs={len(self._specs)}, "
            f"edges={len(self._edges)})"
        )
