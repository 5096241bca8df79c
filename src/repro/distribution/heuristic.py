"""The paper's greedy polynomial heuristic (Section 3.3).

The algorithm, as described:

1. insert the service components that cannot be instantiated arbitrarily
   (pinned components) into their proper devices;
2. repeat: sort the k available devices in decreasing order of their
   (weighted) resource availabilities and insert the next chosen component
   into the current head of the sorted list. If the head device already
   contains a component A, the next chosen component is A's *neighbour*
   with the largest (weighted) resource requirement — merging neighbours
   onto one device removes their edge from the cut. If the head device is
   empty, the next chosen component is the unplaced component with the
   largest requirement overall;
3. repeat until every component is placed.

Both "resource availability" and "resource requirement" are measured by the
weighted sum of the different resources (footnote 3), using the same
criticality weights as the cost aggregation.

Robustness beyond the paper's sketch:

- Step 1 is a proof as well as a placement. When the pinned components
  alone overflow their device, Definition 3.4 admits no k-cut (the greedy
  would only add non-negative load to that device), so the heuristic
  refuses before the greedy runs. The refusal names each overflowing
  (device, resource) pair with the pins' demand and the device's supply.
- When the chosen component does not fit the head device, we fall through
  the sorted device list to the first device that can hold it; if no
  device can, it is placed on the head anyway and the final feasibility
  check reports the overflow (the request is then counted as failed, which
  is exactly Figure 5's success-rate metric).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.distribution.cost import CostWeights
from repro.distribution.distributor import DistributionResult, DistributionStrategy
from repro.distribution.fit import DistributionEnvironment, FitViolation
from repro.distribution.incremental import FIT_TOLERANCE, DeltaEvaluator
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceComponent, ServiceGraph
from repro.resources.vectors import ResourceVector, weighted_magnitude


class HeuristicDistributor(DistributionStrategy):
    """Greedy neighbour-merging placement (the paper's heuristic).

    ``prefer_neighbors`` exists for the ablation study: with ``False`` the
    head device always receives the globally largest unplaced component,
    degrading the heuristic into pure largest-first bin packing.
    """

    name = "heuristic"

    def __init__(self, prefer_neighbors: bool = True) -> None:
        self.prefer_neighbors = prefer_neighbors

    def _distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
    ) -> DistributionResult:
        pinned = [c for c in graph if c.pinned_to is not None]
        refusal = self._refuse_at_pins(graph, pinned, environment)
        if refusal is not None:
            return refusal
        magnitude_weights = self._magnitude_weights(graph, weights, environment)
        remaining: Dict[str, ResourceVector] = {
            d.device_id: d.available for d in environment.devices
        }
        placements: Dict[str, str] = {}
        evaluations = 0

        def requirement_of(component_id: str) -> float:
            return weighted_magnitude(
                graph.component(component_id).resources, magnitude_weights
            )

        # Step 1: pin the components that cannot be instantiated arbitrarily.
        pinned.sort(key=lambda c: (-requirement_of(c.component_id), c.component_id))
        for component in pinned:
            placements[component.component_id] = component.pinned_to
            if component.pinned_to in remaining:
                remaining[component.pinned_to] = (
                    remaining[component.pinned_to] - component.resources
                )

        unplaced: Set[str] = {
            c.component_id for c in graph if c.component_id not in placements
        }

        # Step 2: repeatedly place onto the device with the most headroom.
        while unplaced:
            evaluations += 1
            device_order = self._sorted_devices(remaining, magnitude_weights)
            head = device_order[0]
            chosen = self._choose_component(
                graph, head, placements, unplaced, requirement_of
            )
            target = self._first_fitting_device(
                graph, chosen, device_order, remaining
            )
            if target is None:
                target = head  # overflow; final check will flag it
            placements[chosen] = target
            remaining[target] = remaining[target] - graph.component(chosen).resources
            unplaced.discard(chosen)

        # The greedy decisions above keep their own clamped `remaining`
        # bookkeeping (the paper's sketch); the evaluator only replaces the
        # final O(V+E) fit + cost double walk with one incremental pass.
        evaluator = DeltaEvaluator(graph, environment, weights, placements=placements)
        return self._finalize(
            graph, placements, environment, weights, evaluations, evaluator=evaluator
        )

    # -- internals --------------------------------------------------------------

    def _refuse_at_pins(
        self,
        graph: ServiceGraph,
        pinned: List[ServiceComponent],
        environment: DistributionEnvironment,
    ) -> Optional[DistributionResult]:
        """Step 1 as a proof: the infeasible result when the pins overflow.

        ``pinned`` lists the graph's pinned components in graph order.
        Each pinned device's load is summed in that order, the order
        ``Assignment.device_loads`` uses, and compared as ``fit_violations``
        compares it. Rounding is monotone and the pinned terms keep their
        order, so inserting the unpinned (non-negative) terms can only raise
        the sum: a refusal here is a verdict the full path would reach too.
        A device with one pin compares that pin's own vector, with no sum
        built.

        The refused result carries the pins alone as its assignment, an
        infinite cost, and one ``resource`` violation per overflowing
        (device, resource) pair, in the order ``fit_violations`` lists the
        pins' loads. Its ``evaluations`` is the greedy's step count, one
        per unpinned component, because
        ``DeploymentCostModel.distribution_time_s`` prices the paper's
        algorithm from it: the modelled distribution time, and every
        replay built on it, stay as if the greedy ran.
        """
        loads: Dict[str, ResourceVector] = {}
        for component in pinned:
            held = loads.get(component.pinned_to)
            loads[component.pinned_to] = (
                component.resources if held is None else held + component.resources
            )
        violations: List[FitViolation] = []
        for device_id, load in loads.items():
            available = environment.device(device_id).available
            for name, demand in load.items():
                supply = available.get(name, 0.0)
                if demand > supply + FIT_TOLERANCE:
                    violations.append(
                        FitViolation("resource", device_id, name, demand, supply)
                    )
        if not violations:
            return None
        return DistributionResult(
            strategy=self.name,
            assignment=Assignment({c.component_id: c.pinned_to for c in pinned}),
            feasible=False,
            cost=float("inf"),
            evaluations=len(graph) - len(pinned),
            violations=tuple(violations),
        )

    @staticmethod
    def _magnitude_weights(
        graph: ServiceGraph,
        weights: CostWeights,
        environment: DistributionEnvironment,
    ) -> Dict[str, float]:
        """Weights for the footnote-3 scalar measure.

        Resource amounts live in incomparable units (MB of memory versus a
        CPU fraction), so the criticality weights are divided by the
        environment's total capacity per resource — the same
        availability-relative normalisation the cost aggregation applies —
        before forming the scalar. When the cost weights' resource part is
        all-zero (the network-only special case), uniform weights over the
        graph's resource names keep the greedy order meaningful.
        """
        magnitude = dict(weights.resource_weights)
        if not any(w > 0 for w in magnitude.values()):
            names: Set[str] = set()
            for component in graph:
                names.update(component.resources.names())
            magnitude = {name: 1.0 for name in names}
        capacity = environment.total_capacity()
        return {
            name: (value / capacity[name] if capacity.get(name, 0.0) > 0 else value)
            for name, value in magnitude.items()
        }

    @staticmethod
    def _sorted_devices(
        remaining: Dict[str, ResourceVector], magnitude_weights: Dict[str, float]
    ) -> List[str]:
        return sorted(
            remaining,
            key=lambda did: (
                -weighted_magnitude(remaining[did], magnitude_weights),
                did,
            ),
        )

    def _choose_component(
        self,
        graph: ServiceGraph,
        head: str,
        placements: Dict[str, str],
        unplaced: Set[str],
        requirement_of,
    ) -> str:
        """Pick the next component per the neighbour-merging rule."""
        if self.prefer_neighbors:
            residents = [cid for cid, did in placements.items() if did == head]
            neighbors: Set[str] = set()
            for resident in residents:
                neighbors.update(graph.successors(resident))
                neighbors.update(graph.predecessors(resident))
            candidate_pool = sorted(neighbors & unplaced)
            if candidate_pool:
                return max(
                    candidate_pool,
                    key=lambda cid: (requirement_of(cid), cid),
                )
        return max(sorted(unplaced), key=lambda cid: (requirement_of(cid), cid))

    @staticmethod
    def _first_fitting_device(
        graph: ServiceGraph,
        component_id: str,
        device_order: List[str],
        remaining: Dict[str, ResourceVector],
    ) -> Optional[str]:
        resources = graph.component(component_id).resources
        for device_id in device_order:
            if resources.fits_within(remaining[device_id]):
                return device_id
        return None
