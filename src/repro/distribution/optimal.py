"""Exact optimal service distribution via branch-and-bound search.

"The optimal algorithm uses exhaustive search for the optimal service
distribution solution" (Section 4). The OSD problem being NP-hard
(Theorem 1), exhaustive search is only run on small graphs — the paper
limits Table 1 to two-way cuts of 10–20 component graphs.

Our search enumerates device assignments depth-first with three prunings,
all exact (they never discard an optimal solution):

- *resource*: a partial assignment overflowing any device's availability
  cannot be completed into a feasible one;
- *bandwidth*: inter-device cut throughput only grows as more components
  are placed, so exceeding any pair's bandwidth prunes the subtree;
- *bound*: every term of the cost aggregation is non-negative, so the
  partial cost is a lower bound on any completion; subtrees whose partial
  cost meets the incumbent are cut.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

from repro.distribution.cost import CostWeights
from repro.distribution.distributor import DistributionResult, DistributionStrategy
from repro.distribution.fit import DistributionEnvironment
from repro.distribution.incremental import SearchState
from repro.graph.service_graph import ServiceGraph
from repro.observability.tracing import get_tracer
from repro.resources.vectors import weighted_magnitude

class OptimalDistributor(DistributionStrategy):
    """Branch-and-bound exhaustive search for the minimum-cost feasible k-cut.

    ``max_nodes`` bounds the number of search nodes expanded; ``None`` means
    unbounded (exact). When the budget is exhausted the incumbent (if any)
    is returned, flagged via ``DistributionResult.budget_exhausted`` for
    callers that need to distinguish proven optima; by default the budget is
    generous enough for the paper's Table 1 workloads to complete exactly.
    (The former instance-level ``budget_exhausted`` mirror, deprecated in an
    earlier release because it made shared instances non-reentrant, has been
    removed — read the flag off the result.)
    """

    name = "optimal"

    def __init__(self, max_nodes: Optional[int] = None) -> None:
        if max_nodes is not None and max_nodes <= 0:
            raise ValueError("max_nodes must be positive or None")
        self.max_nodes = max_nodes

    def _distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
    ) -> DistributionResult:
        with get_tracer().span(
            "distribution.optimal", components=len(graph)
        ) as span:
            result = self._search(graph, environment, weights)
            span.set("nodes", result.evaluations)
            span.set("budget_exhausted", result.budget_exhausted)
            return result

    def _search(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
    ) -> DistributionResult:
        order = self._component_order(graph, weights)
        devices = environment.device_ids()
        state = SearchState(graph, environment, weights, devices)

        best_cost = [float("inf")]
        best_placements: List[Optional[Dict[str, str]]] = [None]
        nodes = [0]
        exhausted = [False]

        def recurse(index: int, partial_cost: float) -> None:
            if self.max_nodes is not None and nodes[0] >= self.max_nodes:
                exhausted[0] = True
                return
            if index == len(order):
                if partial_cost < best_cost[0]:
                    best_cost[0] = partial_cost
                    best_placements[0] = dict(state.placements)
                return
            component = graph.component(order[index])
            candidate_devices = (
                [component.pinned_to] if component.pinned_to is not None else devices
            )
            for device_id in candidate_devices:
                nodes[0] += 1
                increment = state.try_place(component.component_id, device_id)
                if increment is None:
                    continue
                new_cost = partial_cost + increment
                if new_cost < best_cost[0]:
                    recurse(index + 1, new_cost)
                state.unplace(component.component_id, device_id)
                if exhausted[0]:
                    return

        recurse(0, 0.0)
        result = self._finalize(
            graph, best_placements[0], environment, weights, nodes[0]
        )
        if exhausted[0]:
            result = dataclasses.replace(result, budget_exhausted=True)
        return result

    @staticmethod
    def _component_order(graph: ServiceGraph, weights: CostWeights) -> List[str]:
        """Pinned first, then by decreasing weighted requirement.

        Placing the bulkiest components early makes resource prunings fire
        near the root, which is where they save the most work.
        """
        magnitude = weights.resource_weights or None

        def size(cid: str) -> float:
            return weighted_magnitude(graph.component(cid).resources, magnitude)

        pinned = sorted(
            (c.component_id for c in graph if c.pinned_to is not None),
            key=lambda cid: (-size(cid), cid),
        )
        free = sorted(
            (c.component_id for c in graph if c.pinned_to is None),
            key=lambda cid: (-size(cid), cid),
        )
        return pinned + free
