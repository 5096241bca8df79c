"""Distribution strategy interface and the service distributor facade."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.distribution.cost import CostWeights, cost_aggregation
from repro.distribution.fit import (
    DistributionEnvironment,
    FitViolation,
    fit_violations,
)
from repro.distribution.pareto import (
    ParetoPoint,
    assignment_objectives,
    evaluator_objectives,
)
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.observability.tracing import get_tracer


@dataclass(frozen=True)
class DistributionResult:
    """Outcome of one distribution attempt.

    ``feasible`` means the assignment satisfies Definition 3.4; an
    infeasible result still carries the best assignment the strategy could
    produce (useful for diagnostics) together with its violations.
    ``evaluations`` counts candidate (partial) assignments examined, the
    search-effort metric reported by the benchmark harness.
    ``budget_exhausted`` is set by bounded searches (currently only the
    optimal distributor) when they stopped before proving optimality.

    ``objectives`` is the returned assignment's position on the four
    multi-objective axes (None when infeasible), and ``front`` the
    Pareto-non-dominated set of configurations the search visited —
    a singleton for single-trajectory strategies, richer for the local
    search, always deterministically ordered (see
    :mod:`repro.distribution.pareto`).
    """

    strategy: str
    assignment: Optional[Assignment]
    feasible: bool
    cost: float
    evaluations: int = 0
    violations: Tuple[FitViolation, ...] = ()
    budget_exhausted: bool = False
    objectives: Optional[ParetoPoint] = None
    front: Tuple[ParetoPoint, ...] = ()

    def __post_init__(self) -> None:
        if self.feasible and self.assignment is None:
            raise ValueError("a feasible result must carry an assignment")


class DistributionStrategy(ABC):
    """Interface of the k-cut search algorithms.

    Strategies read placement pins from the graph's components
    (``ServiceComponent.pinned_to``) and must honour them. Each strategy
    implements :meth:`_distribute`; :meth:`distribute` checks the pins
    first, so every strategy rejects a pin on an unknown device alike.
    """

    name: str = "strategy"

    def distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: Optional[CostWeights] = None,
    ) -> DistributionResult:
        """Search for a k-cut of ``graph`` over the environment's devices.

        Raises ValueError when a component is pinned to a device the
        environment lacks.
        """
        validate_pins(graph, environment)
        return self._distribute(graph, environment, weights or CostWeights())

    @abstractmethod
    def _distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
        weights: CostWeights,
    ) -> DistributionResult:
        """The strategy's search, on a graph whose pins are known devices."""

    def _finalize(
        self,
        graph: ServiceGraph,
        placements: Optional[Dict[str, str]],
        environment: DistributionEnvironment,
        weights: CostWeights,
        evaluations: int,
        evaluator=None,
        front: Optional[Tuple[ParetoPoint, ...]] = None,
    ) -> DistributionResult:
        """Package a placement dict into a checked result.

        When the strategy hands over its :class:`DeltaEvaluator` and that
        evaluator reports a clean state, its incrementally maintained cost
        is used directly, skipping the O(V+E) final re-walk. Any reported
        violation falls back to the full path so the result carries the
        canonical ``fit_violations`` diagnostics.

        A feasible result is scored on the multi-objective axes; ``front``
        overrides the default singleton front (the local search passes
        the non-dominated set it visited).
        """
        if placements is None or len(placements) != len(graph):
            return DistributionResult(
                strategy=self.name,
                assignment=Assignment(placements or {}),
                feasible=False,
                cost=float("inf"),
                evaluations=evaluations,
                violations=(FitViolation("placement", "*", "incomplete"),),
            )
        assignment = Assignment(placements)
        if (
            evaluator is not None
            and evaluator.placements == placements
            and not evaluator.has_violations()
        ):
            objectives = evaluator_objectives(evaluator, weights)
            return DistributionResult(
                strategy=self.name,
                assignment=assignment,
                feasible=True,
                cost=evaluator.cost,
                evaluations=evaluations,
                violations=(),
                objectives=objectives,
                front=front if front is not None else (objectives,),
            )
        violations = tuple(fit_violations(graph, assignment, environment))
        cost = cost_aggregation(graph, assignment, environment, weights)
        objectives = (
            assignment_objectives(graph, assignment, environment, weights)
            if not violations
            else None
        )
        return DistributionResult(
            strategy=self.name,
            assignment=assignment,
            feasible=not violations,
            cost=cost,
            evaluations=evaluations,
            violations=violations,
            objectives=objectives,
            front=(
                front
                if front is not None
                else ((objectives,) if objectives is not None else ())
            ),
        )


def validate_pins(graph: ServiceGraph, environment: DistributionEnvironment) -> None:
    """Raise ValueError when a pin references a device not in the environment."""
    known = set(environment.device_ids())
    for component in graph:
        if component.pinned_to is not None and component.pinned_to not in known:
            raise ValueError(
                f"component {component.component_id!r} pinned to unknown device "
                f"{component.pinned_to!r}"
            )


class ServiceDistributor:
    """Facade of the distribution tier.

    Binds a strategy and a weight vector, and accepts device snapshots in
    the forms the substrates produce (Device objects, candidate devices, or
    a prepared environment). "The service distributor is invoked whenever
    some significant resource fluctuations or device changes happen during
    runtime" — callers simply re-invoke :meth:`distribute` with a fresh
    snapshot.
    """

    def __init__(
        self,
        strategy: DistributionStrategy,
        weights: Optional[CostWeights] = None,
    ) -> None:
        self.strategy = strategy
        self.weights = weights or CostWeights()

    def distribute(
        self,
        graph: ServiceGraph,
        environment: DistributionEnvironment,
    ) -> DistributionResult:
        """Run the bound strategy on a prepared environment."""
        with get_tracer().span(
            "distribution.search",
            strategy=self.strategy.name,
            components=len(graph),
        ) as span:
            graph.validate()
            result = self.strategy.distribute(graph, environment, self.weights)
            span.set("feasible", result.feasible)
            span.set("evaluations", result.evaluations)
            return result
