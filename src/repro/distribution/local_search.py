"""Local-search refinement of a k-cut (an extension beyond the paper).

The paper's greedy heuristic reaches ~90% of optimal cost on Table 1
instances. A natural question the ablation benches quantify: how much of
the remaining gap does cheap local search close? This strategy runs a base
strategy (the paper's heuristic by default) and then hill-climbs with two
move types until a local optimum:

- *relocate*: move one component to a different device;
- *swap*: exchange the devices of two components.

Every move is scored with the :class:`DeltaEvaluator` — O(degree) per
candidate instead of a full O(V+E) re-evaluation — and accepted only when
it is feasible and strictly lowers the cost aggregation, so the refinement
preserves feasibility and never degrades the solution. Pinned components
are never moved.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.distribution.cost import CostWeights
from repro.distribution.distributor import DistributionResult, DistributionStrategy
from repro.distribution.fit import DistributionEnvironment
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.incremental import DeltaEvaluator
from repro.distribution.pareto import ParetoFront, evaluator_objectives
from repro.graph.service_graph import ServiceGraph
from repro.observability.tracing import get_tracer

#: Strict-improvement threshold for accepting a move; differences within
#: this band are treated as ties and resolved on stable ids.
MOVE_TOLERANCE = 1e-12


class LocalSearchDistributor(DistributionStrategy):
    """Hill-climbing refinement over a base strategy's assignment.

    ``max_rounds`` bounds full improvement sweeps; each sweep evaluates
    O(V·k + V²) moves, each in O(degree) via the delta evaluator, so the
    strategy stays well under the old O(V·k·(V+E)) per distribute call.
    ``use_swaps`` enables the quadratic swap neighbourhood (relocations
    alone already close most of the gap; the ablation bench compares).
    ``verify`` turns on the evaluator's equivalence assertions: every
    previewed move is cross-checked against the full evaluation (slow;
    meant for tests).
    """

    name = "local-search"

    def __init__(
        self,
        base: Optional[DistributionStrategy] = None,
        max_rounds: int = 10,
        use_swaps: bool = True,
        verify: bool = False,
    ) -> None:
        if max_rounds < 1:
            raise ValueError("max_rounds must be at least 1")
        self.base = base or HeuristicDistributor()
        self.max_rounds = max_rounds
        self.use_swaps = use_swaps
        self.verify = verify

    def _distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
    ) -> DistributionResult:
        tracer = get_tracer()
        with tracer.span("distribution.greedy_seed", base=self.base.name) as seed_span:
            seed = self.base._distribute(graph, environment, weights)
            seed_span.set("feasible", seed.feasible)
            seed_span.set("evaluations", seed.evaluations)
        if not seed.feasible or seed.assignment is None:
            return DistributionResult(
                strategy=self.name,
                assignment=seed.assignment,
                feasible=seed.feasible,
                cost=seed.cost,
                evaluations=seed.evaluations,
                violations=seed.violations,
            )
        evaluator = DeltaEvaluator(
            graph,
            environment,
            weights,
            placements=dict(seed.assignment),
            verify=self.verify,
        )
        cost = evaluator.cost
        evaluations = seed.evaluations
        devices = environment.device_ids()
        movable = [
            c.component_id for c in graph if c.pinned_to is None
        ]
        # Every configuration the climb passes through is a candidate
        # front member: one dominance pass per committed move, keys
        # stable per seed so the front replays byte-identically.
        front = ParetoFront()
        front.insert(evaluator_objectives(evaluator, weights, key=("seed",)))
        move_id = 0

        with tracer.span("distribution.local_search") as search_span:
            rounds = 0
            for _round in range(self.max_rounds):
                rounds += 1
                improved = False
                for component_id in movable:
                    best_move, best_cost, tried = self._best_relocation(
                        evaluator, component_id, devices, cost
                    )
                    evaluations += tried
                    if best_move is not None:
                        evaluator.commit({component_id: best_move})
                        cost = best_cost
                        improved = True
                        move_id += 1
                        front.insert(
                            evaluator_objectives(
                                evaluator,
                                weights,
                                key=(
                                    f"move{move_id:03d}",
                                    component_id,
                                    best_move,
                                ),
                            )
                        )
                if self.use_swaps:
                    swap, swap_cost, tried = self._best_swap(
                        evaluator, movable, cost
                    )
                    evaluations += tried
                    if swap is not None:
                        first, second = swap
                        evaluator.commit(
                            {
                                first: evaluator.placements[second],
                                second: evaluator.placements[first],
                            }
                        )
                        cost = swap_cost
                        improved = True
                        move_id += 1
                        front.insert(
                            evaluator_objectives(
                                evaluator,
                                weights,
                                key=(f"move{move_id:03d}", first, second),
                            )
                        )
                if not improved:
                    break
            search_span.set("rounds", rounds)
            search_span.set("previews", evaluator.previews)
            search_span.set("preview_hits", evaluator.preview_hits)
            search_span.set("preview_misses", evaluator.preview_misses)
            search_span.set("front_size", len(front))

        return self._finalize(
            graph,
            evaluator.placements,
            environment,
            weights,
            evaluations,
            evaluator=evaluator,
            front=front.points(),
        )

    def _best_relocation(
        self,
        evaluator: DeltaEvaluator,
        component_id: str,
        devices: List[str],
        current_cost: float,
    ) -> Tuple[Optional[str], float, int]:
        original = evaluator.placements[component_id]
        best_device: Optional[str] = None
        best_cost = current_cost
        tried = 0
        for device_id in devices:
            if device_id == original:
                continue
            tried += 1
            candidate = evaluator.preview({component_id: device_id})
            if candidate is None:
                continue
            if candidate < best_cost - MOVE_TOLERANCE:
                best_cost = candidate
                best_device = device_id
            elif (
                best_device is not None
                and candidate <= best_cost + MOVE_TOLERANCE
                and device_id < best_device
            ):
                # Cost tie within float noise: the smaller device id wins,
                # so the chosen move never depends on iteration order.
                best_cost = min(best_cost, candidate)
                best_device = device_id
        return best_device, best_cost, tried

    def _best_swap(
        self,
        evaluator: DeltaEvaluator,
        movable: List[str],
        current_cost: float,
    ) -> Tuple[Optional[Tuple[str, str]], float, int]:
        placements = evaluator.placements
        best_pair: Optional[Tuple[str, str]] = None
        best_cost = current_cost
        tried = 0
        for i, first in enumerate(movable):
            for second in movable[i + 1 :]:
                if placements[first] == placements[second]:
                    continue
                tried += 1
                candidate = evaluator.preview(
                    {first: placements[second], second: placements[first]}
                )
                if candidate is None:
                    continue
                if candidate < best_cost - MOVE_TOLERANCE:
                    best_cost = candidate
                    best_pair = (first, second)
                elif (
                    best_pair is not None
                    and candidate <= best_cost + MOVE_TOLERANCE
                    and (first, second) < best_pair
                ):
                    # Tie on cost: the lexicographically smaller component
                    # pair wins, independent of enumeration order.
                    best_cost = min(best_cost, candidate)
                    best_pair = (first, second)
        return best_pair, best_cost, tried
