"""Incremental (delta) evaluation of k-cut assignments.

The paper pitches the heuristic as the polynomial-time answer to the
NP-hard optimal service distribution, but full re-evaluation makes every
candidate move cost O(V+E): ``fit_violations`` and ``cost_aggregation``
each walk the whole graph. Both Equation 4 terms, however, decompose into
per-component and per-edge contributions::

    CA(Φ) = Σ_c Σ_i w_i · r_i(c)/ra_i(device(c))
          + Σ_{(u,v) cut} w_net · c(u,v)/b(device(u), device(v))

so moving one component only changes the terms of that component and its
incident edges — O(degree) work. This module holds the two incremental
evaluators of the distribution tier:

- :class:`SearchState` — the branch-and-bound partial-assignment state
  (place/unplace with pruning), used by
  :class:`~repro.distribution.optimal.OptimalDistributor`;
- :class:`DeltaEvaluator` — complete-assignment bookkeeping with atomic
  multi-component move previews, used by
  :class:`~repro.distribution.local_search.LocalSearchDistributor` (to
  score relocations and swaps) and
  :class:`~repro.distribution.heuristic.HeuristicDistributor` (to skip the
  final full re-evaluation).

``DeltaEvaluator(verify=True)`` cross-checks every preview against a full
``cost_aggregation`` / ``fit_violations`` recomputation, asserting the
delta path stays equivalent to the reference evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.distribution.cost import CostWeights, cost_aggregation, marginal_cost
from repro.distribution.fit import (
    DistributionEnvironment,
    fit_violations,
)
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.resources.vectors import ResourceVector

#: Same slack ``fit_violations`` applies when comparing demand to supply.
FIT_TOLERANCE = 1e-9

#: Tolerance for the verify-mode cost comparison. Delta accumulation and
#: the full sum associate floating-point operations differently, so exact
#: bit equality is not guaranteed — but both are sums of the same O(V+E)
#: non-negative terms, keeping the drift many orders below this bound.
VERIFY_TOLERANCE = 1e-9


def incident_edges(
    graph: ServiceGraph, component_id: str
) -> Iterator[Tuple[str, float, bool]]:
    """Yield ``(neighbor, throughput, outgoing)`` for every incident edge."""
    for succ in graph.successors(component_id):
        yield succ, graph.edge(component_id, succ).throughput_mbps, True
    for pred in graph.predecessors(component_id):
        yield pred, graph.edge(pred, component_id).throughput_mbps, False


class SearchState:
    """Mutable search state with O(degree) incremental place/unplace.

    Used by the branch-and-bound optimal search: placements are attempted
    depth-first and rolled back, with resource and bandwidth prunings
    applied before the cost increment is computed.
    """

    def __init__(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
        devices: List[str],
    ) -> None:
        self.graph = graph
        self.environment = environment
        self.weights = weights
        self.placements: Dict[str, str] = {}
        self.remaining: Dict[str, ResourceVector] = {
            d.device_id: d.available for d in environment.devices
        }
        self.pair_usage: Dict[Tuple[str, str], float] = {}

    def try_place(self, component_id: str, device_id: str) -> Optional[float]:
        """Attempt a placement; returns the cost increment or None when pruned.

        On success the state is mutated; on pruning it is left unchanged.
        """
        component = self.graph.component(component_id)
        if not component.resources.fits_within(self.remaining[device_id]):
            return None
        # Bandwidth check against placed neighbours. Several incident edges
        # may hit the same device pair, so additions accumulate within this
        # placement too — not just against previously committed usage.
        pending: Dict[Tuple[str, str], float] = {}
        feasible = True
        for neighbor_id, throughput, outgoing in self._incident(component_id):
            neighbor_device = self.placements.get(neighbor_id)
            if neighbor_device is None or neighbor_device == device_id:
                continue
            pair = (
                (device_id, neighbor_device)
                if outgoing
                else (neighbor_device, device_id)
            )
            addition = pending.get(pair, 0.0) + throughput
            if (
                self.pair_usage.get(pair, 0.0) + addition
                > self.environment.bandwidth(*pair) + FIT_TOLERANCE
            ):
                feasible = False
                break
            pending[pair] = addition
        if not feasible:
            return None
        touched = list(pending.items())
        increment = marginal_cost(
            self.graph,
            self.placements,  # Mapping protocol: .get suffices
            self.environment,
            self.weights,
            component_id,
            device_id,
        )
        if increment == float("inf"):
            return None
        for pair, throughput in touched:
            self.pair_usage[pair] = self.pair_usage.get(pair, 0.0) + throughput
        self.placements[component_id] = device_id
        self.remaining[device_id] = self.remaining[device_id] - component.resources
        return increment

    def unplace(self, component_id: str, device_id: str) -> None:
        """Undo a successful :meth:`try_place` (no-op when it was pruned)."""
        if self.placements.get(component_id) != device_id:
            return
        component = self.graph.component(component_id)
        del self.placements[component_id]
        self.remaining[device_id] = self.remaining[device_id] + component.resources
        for neighbor_id, throughput, outgoing in self._incident(component_id):
            neighbor_device = self.placements.get(neighbor_id)
            if neighbor_device is None or neighbor_device == device_id:
                continue
            pair = (
                (device_id, neighbor_device)
                if outgoing
                else (neighbor_device, device_id)
            )
            usage = self.pair_usage.get(pair, 0.0) - throughput
            if usage <= 1e-12:
                self.pair_usage.pop(pair, None)
            else:
                self.pair_usage[pair] = usage

    def _incident(self, component_id: str):
        return incident_edges(self.graph, component_id)


class DeltaEvaluator:
    """Complete-assignment bookkeeping with O(degree) move previews.

    Tracks per-device resource loads, per-pair cut throughput, and the
    Equation 4 cost of the current placements. :meth:`preview` scores a set
    of simultaneous relocations (a single relocate or a swap) without
    mutating state; :meth:`commit` applies one.

    Feasibility semantics mirror ``fit_violations`` (demand may exceed
    supply by at most :data:`FIT_TOLERANCE`), assuming the *current* state
    is feasible — the local-search invariant. Components may be placed on
    devices outside the environment (an infeasible overflow the heuristic
    produces deliberately); such states report violations and fall back to
    the full evaluation path.
    """

    def __init__(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: Optional[CostWeights] = None,
        placements: Optional[Mapping[str, str]] = None,
        verify: bool = False,
    ) -> None:
        self.graph = graph
        self.environment = environment
        self.weights = weights or CostWeights()
        self.verify = verify
        self._network_weight = self.weights.network_weight
        self._avail: Dict[str, Dict[str, float]] = {
            d.device_id: dict(d.available) for d in environment.devices
        }
        self.placements: Dict[str, str] = {}
        self.loads: Dict[str, Dict[str, float]] = {
            device_id: {} for device_id in self._avail
        }
        self.pair_usage: Dict[Tuple[str, str], float] = {}
        self._unknown_devices: Set[str] = set()
        self._cost = 0.0
        self._inf_terms = 0
        self._incident_cache: Dict[str, List[Tuple[str, float, bool]]] = {}
        #: Preview telemetry: every call, split into hits (a finite cost
        #: came back — the fast path paid off) and misses (infeasible/
        #: infinite, i.e. the candidate was rejected).
        self.previews = 0
        self.preview_hits = 0
        self.preview_misses = 0
        for component_id, device_id in (placements or {}).items():
            self.place(component_id, device_id)

    # -- state queries ---------------------------------------------------------

    @property
    def cost(self) -> float:
        """Equation 4 cost of the current placements."""
        if self._inf_terms or self._unknown_devices:
            return float("inf")
        return self._cost

    def assignment(self) -> Assignment:
        """Snapshot the current placements as an :class:`Assignment`."""
        return Assignment(self.placements)

    def has_violations(self) -> bool:
        """Definition 3.4 check against the cached loads and pair usage.

        O(devices · resources + pairs + pins) — no graph walk. True means
        the caller should fall back to ``fit_violations`` for the
        canonical per-violation diagnostics.
        """
        if self._unknown_devices:
            return True
        if len(self.placements) != len(self.graph):
            return True
        for component in self.graph:
            if component.pinned_to is not None:
                if self.placements.get(component.component_id) != component.pinned_to:
                    return True
        for device_id, load in self.loads.items():
            available = self._avail[device_id]
            for name, demand in load.items():
                if demand > available.get(name, 0.0) + FIT_TOLERANCE:
                    return True
        for pair, demand in self.pair_usage.items():
            if demand > self.environment.bandwidth(*pair) + FIT_TOLERANCE:
                return True
        return False

    # -- mutation --------------------------------------------------------------

    def place(self, component_id: str, device_id: str) -> None:
        """Add one placement unconditionally, updating loads and cost."""
        if component_id in self.placements:
            raise ValueError(f"component {component_id!r} is already placed")
        self.placements[component_id] = device_id
        if device_id not in self._avail:
            self._unknown_devices.add(component_id)
            return
        available = self._avail[device_id]
        load = self.loads[device_id]
        for name, demand in self.graph.component(component_id).resources.items():
            if demand == 0.0:
                continue
            load[name] = load.get(name, 0.0) + demand
            self._add_resource_term(available, name, demand, +1)
        for neighbor_id, throughput, outgoing in self._incident_of(component_id):
            neighbor_device = self.placements.get(neighbor_id)
            if (
                neighbor_device is None
                or neighbor_device == device_id
                or neighbor_id in self._unknown_devices
                or throughput == 0.0
            ):
                continue
            pair = (
                (device_id, neighbor_device)
                if outgoing
                else (neighbor_device, device_id)
            )
            self.pair_usage[pair] = self.pair_usage.get(pair, 0.0) + throughput
            self._add_network_term(pair, throughput, +1)

    def unplace(self, component_id: str) -> None:
        """Remove one placement, reversing :meth:`place`'s bookkeeping."""
        device_id = self.placements.pop(component_id)
        if component_id in self._unknown_devices:
            self._unknown_devices.discard(component_id)
            return
        available = self._avail[device_id]
        load = self.loads[device_id]
        for name, demand in self.graph.component(component_id).resources.items():
            if demand == 0.0:
                continue
            residue = load.get(name, 0.0) - demand
            if abs(residue) <= 1e-12:
                load.pop(name, None)
            else:
                load[name] = residue
            self._add_resource_term(available, name, demand, -1)
        for neighbor_id, throughput, outgoing in self._incident_of(component_id):
            neighbor_device = self.placements.get(neighbor_id)
            if (
                neighbor_device is None
                or neighbor_device == device_id
                or neighbor_id in self._unknown_devices
                or throughput == 0.0
            ):
                continue
            pair = (
                (device_id, neighbor_device)
                if outgoing
                else (neighbor_device, device_id)
            )
            usage = self.pair_usage.get(pair, 0.0) - throughput
            if abs(usage) <= 1e-12:
                self.pair_usage.pop(pair, None)
            else:
                self.pair_usage[pair] = usage
            self._add_network_term(pair, throughput, -1)

    # -- move scoring ------------------------------------------------------------

    def preview(self, moves: Mapping[str, str]) -> Optional[float]:
        """Total cost after applying ``moves`` simultaneously, or None.

        ``moves`` maps already-placed component ids to their candidate new
        devices; a single entry scores a relocation, two entries a swap.
        All moves are evaluated against the *final* state (a swap's
        transient double-occupancy never causes a false rejection).

        Returns None when the moved-to state violates Definition 3.4
        (relative to the changed devices/pairs only — the current state is
        assumed feasible) or would have infinite cost. Does not mutate.
        """
        resource_delta, cost_delta, inf_delta = self._resource_deltas(moves)
        if resource_delta is None:
            result: Optional[float] = None
        else:
            network = self._network_deltas(moves)
            if network is None:
                result = None
            else:
                net_cost_delta, net_inf_delta = network
                if self._inf_terms + inf_delta + net_inf_delta > 0:
                    result = None
                else:
                    result = self._cost + cost_delta + net_cost_delta
        self.previews += 1
        if result is None:
            self.preview_misses += 1
        else:
            self.preview_hits += 1
        if self.verify:
            self._verify_preview(moves, result)
        return result

    def commit(self, moves: Mapping[str, str]) -> None:
        """Apply a set of moves (normally one previously previewed)."""
        targets = {
            component_id: device_id
            for component_id, device_id in moves.items()
            if self.placements[component_id] != device_id
        }
        for component_id in targets:
            self.unplace(component_id)
        for component_id, device_id in targets.items():
            self.place(component_id, device_id)

    # -- internals ---------------------------------------------------------------

    def _incident_of(self, component_id: str) -> List[Tuple[str, float, bool]]:
        cached = self._incident_cache.get(component_id)
        if cached is None:
            cached = list(incident_edges(self.graph, component_id))
            self._incident_cache[component_id] = cached
        return cached

    def _add_resource_term(
        self, available: Dict[str, float], name: str, demand: float, sign: int
    ) -> None:
        weight = self.weights.weight_of(name)
        if weight == 0.0:
            return
        supply = available.get(name, 0.0)
        if supply <= 0.0:
            self._inf_terms += sign
        else:
            self._cost += sign * weight * demand / supply

    def _add_network_term(
        self, pair: Tuple[str, str], throughput: float, sign: int
    ) -> None:
        if self._network_weight == 0.0 or throughput == 0.0:
            return
        supply = self.environment.bandwidth(*pair)
        if supply <= 0.0:
            self._inf_terms += sign
        elif supply != float("inf"):
            self._cost += sign * self._network_weight * throughput / supply

    def _resource_deltas(self, moves: Mapping[str, str]):
        """Per-device load deltas + end-system cost delta for the moves.

        Returns ``(load_delta, cost_delta, inf_delta)`` or ``(None, 0, 0)``
        when a target device is unknown or a moved-to load would violate
        its availability.
        """
        load_delta: Dict[str, Dict[str, float]] = {}
        cost_delta = 0.0
        inf_delta = 0
        for component_id, new_device in moves.items():
            old_device = self.placements[component_id]
            if old_device == new_device:
                continue
            if new_device not in self._avail or old_device not in self._avail:
                return None, 0.0, 0
            resources = self.graph.component(component_id).resources
            old_avail = self._avail[old_device]
            new_avail = self._avail[new_device]
            for name, demand in resources.items():
                if demand == 0.0:
                    continue
                old_bucket = load_delta.setdefault(old_device, {})
                old_bucket[name] = old_bucket.get(name, 0.0) - demand
                new_bucket = load_delta.setdefault(new_device, {})
                new_bucket[name] = new_bucket.get(name, 0.0) + demand
                weight = self.weights.weight_of(name)
                if weight != 0.0:
                    old_supply = old_avail.get(name, 0.0)
                    if old_supply <= 0.0:
                        inf_delta -= 1
                    else:
                        cost_delta -= weight * demand / old_supply
                    new_supply = new_avail.get(name, 0.0)
                    if new_supply <= 0.0:
                        inf_delta += 1
                    else:
                        cost_delta += weight * demand / new_supply
        for device_id, names in load_delta.items():
            available = self._avail[device_id]
            load = self.loads[device_id]
            for name, delta in names.items():
                if delta <= 0.0:
                    continue
                if load.get(name, 0.0) + delta > available.get(name, 0.0) + FIT_TOLERANCE:
                    return None, 0.0, 0
        return load_delta, cost_delta, inf_delta

    def _network_deltas(self, moves: Mapping[str, str]):
        """Pair-usage feasibility + network cost delta for the moves.

        Returns ``(cost_delta, inf_delta)`` or None on a bandwidth
        violation. Edges between two moved components are counted once.
        """
        cost_delta = 0.0
        inf_delta = 0
        usage_delta: Dict[Tuple[str, str], float] = {}
        seen_edges: Set[Tuple[str, str]] = set()
        for component_id in moves:
            if self.placements[component_id] == moves[component_id]:
                continue
            for neighbor_id, throughput, outgoing in self._incident_of(component_id):
                edge_key = (
                    (component_id, neighbor_id)
                    if outgoing
                    else (neighbor_id, component_id)
                )
                if edge_key in seen_edges:
                    continue
                seen_edges.add(edge_key)
                if throughput == 0.0:
                    continue
                neighbor_old = self.placements.get(neighbor_id)
                if neighbor_old is None or neighbor_id in self._unknown_devices:
                    continue
                old_device = self.placements[component_id]
                new_device = moves[component_id]
                neighbor_new = moves.get(neighbor_id, neighbor_old)
                old_pair = (
                    None
                    if neighbor_old == old_device
                    else (
                        (old_device, neighbor_old)
                        if outgoing
                        else (neighbor_old, old_device)
                    )
                )
                new_pair = (
                    None
                    if neighbor_new == new_device
                    else (
                        (new_device, neighbor_new)
                        if outgoing
                        else (neighbor_new, new_device)
                    )
                )
                if old_pair == new_pair:
                    continue
                if old_pair is not None:
                    usage_delta[old_pair] = usage_delta.get(old_pair, 0.0) - throughput
                    supply = self.environment.bandwidth(*old_pair)
                    if supply <= 0.0:
                        inf_delta -= 1
                    elif supply != float("inf") and self._network_weight != 0.0:
                        cost_delta -= self._network_weight * throughput / supply
                if new_pair is not None:
                    usage_delta[new_pair] = usage_delta.get(new_pair, 0.0) + throughput
                    supply = self.environment.bandwidth(*new_pair)
                    if supply <= 0.0:
                        inf_delta += 1
                    elif supply != float("inf") and self._network_weight != 0.0:
                        cost_delta += self._network_weight * throughput / supply
        for pair, delta in usage_delta.items():
            if delta <= 0.0:
                continue
            supply = self.environment.bandwidth(*pair)
            if self.pair_usage.get(pair, 0.0) + delta > supply + FIT_TOLERANCE:
                return None
        return cost_delta, inf_delta

    def _verify_preview(
        self, moves: Mapping[str, str], result: Optional[float]
    ) -> None:
        """Assert a numeric preview equals the full reference evaluation."""
        if result is None:
            return
        merged = dict(self.placements)
        merged.update(moves)
        assignment = Assignment(merged)
        full = cost_aggregation(self.graph, assignment, self.environment, self.weights)
        if not abs(full - result) <= VERIFY_TOLERANCE * max(1.0, abs(full)):
            raise AssertionError(
                f"delta-evaluated move cost {result!r} diverges from full "
                f"re-evaluation {full!r} for moves {dict(moves)!r}"
            )
        violations = fit_violations(self.graph, assignment, self.environment)
        if violations:
            raise AssertionError(
                f"delta evaluation accepted moves {dict(moves)!r} that the "
                f"full fit test rejects: {violations[:3]!r}"
            )
