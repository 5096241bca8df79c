"""Multi-objective Pareto layer over the distribution search.

The paper's Cost Aggregation (Equation 4) collapses every concern into
one scalar. Ben Mabrouk et al. and Kalinahia et al. (PAPERS.md) motivate
keeping the objectives apart: a configuration is scored on four axes, all
minimised —

- **latency** — the network-contention term Σ T(i,j)/b(i,j), the
  transfer time proxy Equation 4 weights with ``w_net``;
- **fidelity_loss** — ``1 - demand_scale`` of the degradation level the
  configuration serves (0.0 at full fidelity);
- **resource_cost** — the end-system term Σ_j Σ_i w_i·r_i(j)/ra_i(j);
- **energy** — a deterministic proxy: active devices plus
  ``ENERGY_PER_CUT_MBPS`` per Mbps crossing the cut (radios burn power
  per device kept awake and per byte shipped off-device).

:class:`ParetoFront` keeps the non-dominated set under epsilon-toleranced
dominance (:data:`EPSILON`) so float noise can neither cycle the front
nor split one point into two, with a deterministic total order —
``(objective tuple, key)`` — so fronts are byte-identical per seed.
:class:`UtilityProfile` is the pluggable per-request-class scalarisation
that picks one front point (weighted sum over per-front min-max
normalised objectives; weighted-sum selection over a fixed front is
monotone in the weights).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Dominance tolerance: objective gaps smaller than this are float noise.
EPSILON = 1e-9

#: Energy-proxy cost of one Mbps crossing the cut (relative to one
#: active device costing 1.0).
ENERGY_PER_CUT_MBPS = 0.01

#: Reporting order of the objective axes.
OBJECTIVE_NAMES = ("latency", "fidelity_loss", "resource_cost", "energy")


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate configuration's position in objective space.

    ``key`` is the stable tie-break identity (level label, move id, …):
    two points with identical objectives but distinct keys coexist on a
    front and sort deterministically.
    """

    latency: float
    fidelity_loss: float
    resource_cost: float
    energy: float
    key: Tuple[str, ...] = ()

    def objectives(self) -> Tuple[float, float, float, float]:
        return (self.latency, self.fidelity_loss, self.resource_cost, self.energy)

    def sort_key(self) -> Tuple[Tuple[float, ...], Tuple[str, ...]]:
        return (self.objectives(), self.key)

    def as_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            name: round(value, 9)
            for name, value in zip(OBJECTIVE_NAMES, self.objectives())
        }
        data["key"] = list(self.key)
        return data


def dominates(a: ParetoPoint, b: ParetoPoint, epsilon: float = EPSILON) -> bool:
    """Epsilon-toleranced Pareto dominance: ``a`` dominates ``b``.

    ``a`` must be no worse than ``b`` on every axis (within ``epsilon``)
    and strictly better (by more than ``epsilon``) on at least one, so a
    float-noise-sized advantage can never evict a genuinely incomparable
    point — the property that keeps front insertion acyclic.
    """
    at = a.objectives()
    bt = b.objectives()
    no_worse = all(x <= y + epsilon for x, y in zip(at, bt))
    strictly = any(x < y - epsilon for x, y in zip(at, bt))
    return no_worse and strictly


class ParetoFront:
    """The non-dominated set, deterministically ordered.

    :meth:`insert` costs one dominance pass over the members per
    candidate. Members are kept sorted by :meth:`ParetoPoint.sort_key`
    so iteration order (and hence serialisation) is byte-identical for
    identical insertion histories, independent of float noise below
    :data:`EPSILON`.
    """

    def __init__(
        self,
        points: Iterable[ParetoPoint] = (),
        epsilon: float = EPSILON,
    ) -> None:
        if epsilon < 0:
            raise ValueError("epsilon cannot be negative")
        self.epsilon = epsilon
        self._points: List[ParetoPoint] = []
        self._keys: List[Tuple[Tuple[float, ...], Tuple[str, ...]]] = []
        for point in points:
            self.insert(point)

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self):
        return iter(self._points)

    def points(self) -> Tuple[ParetoPoint, ...]:
        """The front as an ordered tuple (ascending sort key)."""
        return tuple(self._points)

    def insert(self, point: ParetoPoint) -> bool:
        """Add ``point`` unless dominated; evict members it dominates.

        Returns True when the point joined the front. An exact duplicate
        (same objectives *and* same key) is rejected, so replays cannot
        grow the front.
        """
        for member in self._points:
            if dominates(member, point, self.epsilon):
                return False
            if member.sort_key() == point.sort_key():
                return False
        survivors = [
            m for m in self._points if not dominates(point, m, self.epsilon)
        ]
        if len(survivors) != len(self._points):
            self._points = survivors
            self._keys = [m.sort_key() for m in survivors]
        index = bisect.bisect_left(self._keys, point.sort_key())
        self._points.insert(index, point)
        self._keys.insert(index, point.sort_key())
        return True


@dataclass(frozen=True)
class UtilityProfile:
    """A request class's weighting over the four objective axes.

    Weights are non-negative with a positive sum; scoring normalises each
    objective to [0, 1] over the candidate set (min-max), so the weights
    are scale-free and comparable across axes. Selection is the weighted
    sum's argmin with deterministic tie-breaking; over a fixed candidate
    set it is monotone in the weights (raising one axis's weight never
    raises the selected point's value on that axis).
    """

    name: str
    latency: float = 0.25
    fidelity: float = 0.25
    resource: float = 0.25
    energy: float = 0.25

    def __post_init__(self) -> None:
        weights = (self.latency, self.fidelity, self.resource, self.energy)
        if any(w < 0 for w in weights):
            raise ValueError("utility weights must be non-negative")
        if sum(weights) <= 0:
            raise ValueError("utility weights must not all be zero")

    def weights(self) -> Tuple[float, float, float, float]:
        """Weights in :data:`OBJECTIVE_NAMES` order, normalised to sum 1."""
        raw = (self.latency, self.fidelity, self.resource, self.energy)
        total = sum(raw)
        return tuple(w / total for w in raw)  # type: ignore[return-value]

    def scores(self, points: Sequence[ParetoPoint]) -> List[float]:
        """Weighted-sum scores over per-set min-max normalised objectives."""
        if not points:
            return []
        weights = self.weights()
        columns = list(zip(*(p.objectives() for p in points)))
        spans = []
        for column in columns:
            lo, hi = min(column), max(column)
            spans.append((lo, (hi - lo) if hi > lo else 0.0))
        scored: List[float] = []
        for point in points:
            total = 0.0
            for value, weight, (lo, span) in zip(
                point.objectives(), weights, spans
            ):
                if span > 0.0:
                    total += weight * (value - lo) / span
            scored.append(total)
        return scored

    def order(self, points: Sequence[ParetoPoint]) -> List[int]:
        """Indices of ``points`` from most to least preferred.

        Ties (within :data:`EPSILON` of score) break on the input index,
        so a ladder's natural best-first order is the tie-break.
        """
        scored = self.scores(points)
        quantised = [round(s / EPSILON) * EPSILON for s in scored]
        return sorted(range(len(points)), key=lambda i: (quantised[i], i))

    def select(self, points: Sequence[ParetoPoint]) -> Optional[ParetoPoint]:
        """The preferred point, or None for an empty candidate set."""
        if not points:
            return None
        return points[self.order(points)[0]]


#: Named profiles a scenario document (or any caller) can reference.
UTILITY_PROFILES: Dict[str, UtilityProfile] = {
    "balanced": UtilityProfile("balanced"),
    "latency_first": UtilityProfile(
        "latency_first", latency=0.7, fidelity=0.1, resource=0.1, energy=0.1
    ),
    "fidelity_first": UtilityProfile(
        "fidelity_first", latency=0.1, fidelity=0.7, resource=0.1, energy=0.1
    ),
    "resource_lean": UtilityProfile(
        "resource_lean", latency=0.1, fidelity=0.1, resource=0.7, energy=0.1
    ),
    "battery_saver": UtilityProfile(
        "battery_saver", latency=0.1, fidelity=0.1, resource=0.2, energy=0.6
    ),
}


def profile_names() -> Tuple[str, ...]:
    """Known profile names, sorted (for docs and error messages)."""
    return tuple(sorted(UTILITY_PROFILES))


def utility_profile(name: str) -> UtilityProfile:
    """Look up a named profile; ValueError lists the known names."""
    try:
        return UTILITY_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown utility profile {name!r}; known: "
            + ", ".join(profile_names())
        ) from None


# -- objective extraction ------------------------------------------------------------


def assignment_objectives(
    graph,
    assignment,
    environment,
    weights,
    fidelity_loss: float = 0.0,
    key: Tuple[str, ...] = (),
) -> ParetoPoint:
    """Score a complete assignment on the four axes (O(V+E)).

    ``latency`` is the unweighted network-contention sum Σ T/b (infinite
    bandwidth contributes nothing, zero bandwidth makes it ``inf``);
    ``resource_cost`` is Equation 4's end-system term under ``weights``.
    """
    from repro.distribution.cost import resource_cost

    latency = 0.0
    cut_mbps = 0.0
    for pair, demand in assignment.pairwise_throughput(graph).items():
        if demand == 0.0:
            continue
        cut_mbps += demand
        supply = environment.bandwidth(*pair)
        if supply <= 0.0:
            latency = float("inf")
        elif supply != float("inf") and latency != float("inf"):
            latency += demand / supply
    devices_used = len(set(assignment.values()))
    return ParetoPoint(
        latency=latency,
        fidelity_loss=fidelity_loss,
        resource_cost=resource_cost(graph, assignment, environment, weights),
        energy=devices_used + ENERGY_PER_CUT_MBPS * cut_mbps,
        key=key,
    )


def evaluator_objectives(
    evaluator,
    weights,
    fidelity_loss: float = 0.0,
    key: Tuple[str, ...] = (),
) -> ParetoPoint:
    """Score a :class:`DeltaEvaluator`'s current state on the four axes.

    Reads the evaluator's maintained loads and pair usage — O(devices ×
    resources + pairs), no graph walk — so the local search can afford
    one point per committed move.
    """
    resource = 0.0
    for device_id, load in evaluator.loads.items():
        available = evaluator._avail[device_id]
        for name, demand in load.items():
            weight = weights.weight_of(name)
            if weight == 0.0 or demand == 0.0:
                continue
            supply = available.get(name, 0.0)
            if supply <= 0.0:
                resource = float("inf")
                break
            resource += weight * demand / supply
        if resource == float("inf"):
            break
    latency = 0.0
    cut_mbps = 0.0
    for pair, demand in evaluator.pair_usage.items():
        if demand == 0.0:
            continue
        cut_mbps += demand
        supply = evaluator.environment.bandwidth(*pair)
        if supply <= 0.0:
            latency = float("inf")
        elif supply != float("inf") and latency != float("inf"):
            latency += demand / supply
    devices_used = len(set(evaluator.placements.values()))
    return ParetoPoint(
        latency=latency,
        fidelity_loss=fidelity_loss,
        resource_cost=resource,
        energy=devices_used + ENERGY_PER_CUT_MBPS * cut_mbps,
        key=key,
    )


def level_prior(
    demand_scale: float, label: str, position: int = 0
) -> ParetoPoint:
    """A degradation level's a-priori objective point.

    Before a level has ever been planned (so no measured point exists),
    its demand scale is the best available estimate of every load-shaped
    axis: scaled demand shrinks the resource, transfer, and energy terms
    roughly proportionally, while fidelity loss is ``1 - scale`` by
    definition. ``position`` disambiguates duplicate scales.
    """
    if not 0.0 < demand_scale <= 1.0:
        raise ValueError("demand_scale must be in (0, 1]")
    return ParetoPoint(
        latency=demand_scale,
        fidelity_loss=1.0 - demand_scale,
        resource_cost=demand_scale,
        energy=demand_scale,
        key=(f"level{position}", label),
    )


__all__ = [
    "EPSILON",
    "ENERGY_PER_CUT_MBPS",
    "OBJECTIVE_NAMES",
    "ParetoPoint",
    "ParetoFront",
    "UtilityProfile",
    "UTILITY_PROFILES",
    "assignment_objectives",
    "dominates",
    "evaluator_objectives",
    "level_prior",
    "profile_names",
    "utility_profile",
]
