"""k-cuts of a service graph (Definition 3.3) as device assignments.

The distribution tier's output is an :class:`Assignment`: a mapping from
component id to device id. The induced k-cut is the partition of components
by device; an edge *belongs to the cut* when its endpoints are assigned to
different devices, in which case its throughput consumes end-to-end network
bandwidth between the two devices.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.graph.service_graph import ServiceEdge, ServiceGraph
from repro.resources.vectors import ResourceVector


class Assignment(Mapping[str, str]):
    """An immutable mapping component id → device id.

    Provides the cut-derived quantities the distribution tier needs:
    per-device resource loads, cut edges, and the pairwise inter-device
    throughput matrix ``T(i, j)`` from Definition 3.5.

    The cut-derived quantities are cached per (graph identity, graph
    version), so repeated fit/cost queries against the same graph are O(1)
    after the first. Mutating the graph bumps its version and invalidates
    the cache; :meth:`with_placement` copies start with a fresh cache.
    """

    __slots__ = (
        "_placements",
        "_cache_graph",
        "_cache_version",
        "_cut_edges",
        "_device_loads",
        "_pairwise",
    )

    def __init__(self, placements: Mapping[str, str]) -> None:
        self._placements: Dict[str, str] = dict(placements)
        self._cache_graph: Optional["weakref.ref[ServiceGraph]"] = None
        self._cache_version: int = -1
        self._cut_edges: Optional[List[ServiceEdge]] = None
        self._device_loads: Optional[Dict[str, ResourceVector]] = None
        self._pairwise: Optional[Dict[Tuple[str, str], float]] = None

    def _sync_cache(self, graph: ServiceGraph) -> None:
        """Bind the derived-quantity cache to a graph snapshot.

        A weak reference (not the id) identifies the graph, so a recycled
        object address can never alias a dead graph's cache.
        """
        cached = self._cache_graph() if self._cache_graph is not None else None
        if cached is graph and self._cache_version == graph.version:
            return
        self._cache_graph = weakref.ref(graph)
        self._cache_version = graph.version
        self._cut_edges = None
        self._device_loads = None
        self._pairwise = None

    def __getitem__(self, component_id: str) -> str:
        return self._placements[component_id]

    def __iter__(self) -> Iterator[str]:
        return iter(self._placements)

    def __len__(self) -> int:
        return len(self._placements)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Assignment):
            return NotImplemented
        return self._placements == other._placements

    def __hash__(self) -> int:
        return hash(frozenset(self._placements.items()))

    def __repr__(self) -> str:
        return f"Assignment({self._placements!r})"

    def device_of(self, component_id: str) -> str:
        """Return the device a component is placed on."""
        return self._placements[component_id]

    def devices_used(self) -> List[str]:
        """Return the distinct devices receiving at least one component."""
        return sorted(set(self._placements.values()))

    def partition(self) -> Dict[str, List[str]]:
        """The k-cut's subsets ``V_1, ..., V_k``: device id → component ids."""
        subsets: Dict[str, List[str]] = {}
        for component_id, device_id in self._placements.items():
            subsets.setdefault(device_id, []).append(component_id)
        for members in subsets.values():
            members.sort()
        return subsets

    def components_on(self, device_id: str) -> List[str]:
        """Return the (sorted) component ids placed on one device."""
        return sorted(
            cid for cid, did in self._placements.items() if did == device_id
        )

    def with_placement(self, component_id: str, device_id: str) -> "Assignment":
        """Return a copy with one placement added or changed."""
        merged = dict(self._placements)
        merged[component_id] = device_id
        return Assignment(merged)

    def covers(self, graph: ServiceGraph) -> bool:
        """True when every component of the graph is placed."""
        return all(cid in self._placements for cid in graph.component_ids())

    # -- cut-derived quantities --------------------------------------------

    def cut_edges(self, graph: ServiceGraph) -> List[ServiceEdge]:
        """Edges whose endpoints lie on different devices (Definition 3.3)."""
        self._sync_cache(graph)
        if self._cut_edges is None:
            self._cut_edges = [
                edge
                for edge in graph.edges()
                if self._placements.get(edge.source)
                != self._placements.get(edge.target)
            ]
        return list(self._cut_edges)

    def device_load(self, graph: ServiceGraph, device_id: str) -> ResourceVector:
        """Sum of requirement vectors of the components on one device."""
        return self.device_loads(graph).get(device_id, ResourceVector())

    def device_loads(self, graph: ServiceGraph) -> Dict[str, ResourceVector]:
        """Per-device summed requirement vectors for all used devices."""
        self._sync_cache(graph)
        if self._device_loads is None:
            loads: Dict[str, ResourceVector] = {}
            for component in graph:
                device_id = self._placements.get(component.component_id)
                if device_id is None:
                    continue
                current = loads.get(device_id, ResourceVector())
                loads[device_id] = current + component.resources
            self._device_loads = loads
        return dict(self._device_loads)

    def pairwise_throughput(self, graph: ServiceGraph) -> Dict[Tuple[str, str], float]:
        """Definition 3.5's ``T(i, j)``: summed cut throughput per device pair.

        Keys are ordered pairs ``(device_of(u), device_of(v))`` following
        edge direction; only pairs with non-zero traffic appear.
        """
        self._sync_cache(graph)
        if self._pairwise is None:
            traffic: Dict[Tuple[str, str], float] = {}
            for edge in graph.edges():
                source_dev = self._placements.get(edge.source)
                target_dev = self._placements.get(edge.target)
                if (
                    source_dev is None
                    or target_dev is None
                    or source_dev == target_dev
                ):
                    continue
                key = (source_dev, target_dev)
                traffic[key] = traffic.get(key, 0.0) + edge.throughput_mbps
            self._pairwise = traffic
        return dict(self._pairwise)

    def respects_pins(self, graph: ServiceGraph) -> bool:
        """True when every pinned component sits on its pinned device."""
        for component in graph:
            if component.pinned_to is not None:
                placed = self._placements.get(component.component_id)
                if placed != component.pinned_to:
                    return False
        return True
