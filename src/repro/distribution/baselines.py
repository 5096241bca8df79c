"""Baseline distribution algorithms: random and fixed (Section 4).

The evaluation compares the heuristic against

- a *random* algorithm, which places components on devices at random (it
  still benefits from re-distribution on every change, which is why it
  beats *fixed* in Figure 5 yet trails the heuristic badly in both cost
  ratio and success rate); and
- a *fixed* algorithm, which computes one distribution per application up
  front and never re-distributes — the strawman for static configuration.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.distribution.cost import CostWeights
from repro.distribution.distributor import DistributionResult, DistributionStrategy
from repro.distribution.fit import DistributionEnvironment, fit_violations
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph


class RandomDistributor(DistributionStrategy):
    """Random placement with a feasibility retry budget.

    Two sampling modes:

    - ``"uniform"`` — every unpinned component goes to a uniformly random
      device, feasibility checked only at the end (the harshest reading of
      a random baseline);
    - ``"fit"`` — components are placed in random order, each on a device
      drawn uniformly among those whose *remaining* capacity still holds it
      (first-fit randomised packing). Still cost-oblivious, but resource-
      aware — the reading that keeps the random baseline viable on very
      asymmetric device sets such as Figure 5's desktop/laptop/PDA trio.

    The first *feasible* attempt is returned — the random baseline does not
    optimise cost, which is what produces its poor cost-ratio in Table 1.
    When no attempt within the budget is feasible, the last attempt is
    returned flagged infeasible (a failed configuration request in
    Figure 5's success-rate metric).
    """

    name = "random"

    def __init__(
        self,
        rng: Optional[random.Random] = None,
        attempts: int = 50,
        mode: str = "uniform",
    ) -> None:
        if attempts < 1:
            raise ValueError("attempts must be at least 1")
        if mode not in ("uniform", "fit"):
            raise ValueError(f"unknown mode {mode!r}")
        self.rng = rng or random.Random()
        self.attempts = attempts
        self.mode = mode

    def _distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
    ) -> DistributionResult:
        last: Optional[Dict[str, str]] = None
        for attempt in range(1, self.attempts + 1):
            if self.mode == "uniform":
                placements = self._sample_uniform(graph, environment)
            else:
                placements = self._sample_fit(graph, environment)
            last = placements
            if not fit_violations(graph, Assignment(placements), environment):
                return self._finalize(graph, placements, environment, weights, attempt)
        return self._finalize(graph, last, environment, weights, self.attempts)

    def _sample_uniform(
        self, graph: ServiceGraph, environment: DistributionEnvironment
    ) -> Dict[str, str]:
        devices = environment.device_ids()
        placements: Dict[str, str] = {}
        for component in graph:
            if component.pinned_to is not None:
                placements[component.component_id] = component.pinned_to
            else:
                placements[component.component_id] = self.rng.choice(devices)
        return placements

    def _sample_fit(
        self, graph: ServiceGraph, environment: DistributionEnvironment
    ) -> Dict[str, str]:
        remaining = {d.device_id: d.available for d in environment.devices}
        placements: Dict[str, str] = {}
        order = graph.components()
        self.rng.shuffle(order)
        for component in order:
            if component.pinned_to is not None:
                device_id = component.pinned_to
            else:
                fitting = [
                    did
                    for did, avail in remaining.items()
                    if component.resources.fits_within(avail)
                ]
                device_id = (
                    self.rng.choice(fitting)
                    if fitting
                    else self.rng.choice(environment.device_ids())
                )
            placements[component.component_id] = device_id
            remaining[device_id] = remaining[device_id] - component.resources
        return placements


class FixedDistributor(DistributionStrategy):
    """Static per-application placement computed once and never revised.

    The first request for a given graph key (the graph's name by default —
    Figure 5's workload draws from 5 predefined graphs) computes a
    placement with the ``base`` strategy against the environment *at that
    moment*. Every later request replays the cached placement and merely
    re-checks feasibility against the current environment: as resources
    shift, the stale placement increasingly fails, which "lacks dynamic
    service distribution considerations" and yields Figure 5's lowest
    success rate.
    """

    name = "fixed"

    def __init__(self, base: Optional[DistributionStrategy] = None) -> None:
        from repro.distribution.heuristic import HeuristicDistributor

        self.base = base or HeuristicDistributor()
        self._cache: Dict[str, Assignment] = {}

    def cached_graphs(self) -> int:
        """Number of graph keys with a frozen placement."""
        return len(self._cache)

    def forget(self, graph_key: Optional[str] = None) -> None:
        """Drop one cached placement, or all of them."""
        if graph_key is None:
            self._cache.clear()
        else:
            self._cache.pop(graph_key, None)

    def _distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
    ) -> DistributionResult:
        cached = self._cache.get(graph.name)
        if cached is None:
            initial = self.base._distribute(graph, environment, weights)
            if initial.assignment is None or not initial.assignment.covers(graph):
                return DistributionResult(
                    strategy=self.name,
                    assignment=initial.assignment,
                    feasible=False,
                    cost=float("inf"),
                    evaluations=initial.evaluations,
                    violations=initial.violations,
                )
            self._cache[graph.name] = initial.assignment
            cached = initial.assignment
        placements = {cid: cached[cid] for cid in graph.component_ids() if cid in cached}
        # Components the cached cut does not know (graph drift) go to the
        # cached cut's first device — fixed does not adapt.
        if len(placements) != len(graph):
            fallback = cached.devices_used()[0]
            for cid in graph.component_ids():
                placements.setdefault(cid, fallback)
        return self._finalize(graph, placements, environment, weights, 1)
