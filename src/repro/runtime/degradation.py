"""Graceful QoS degradation on admission failure.

The paper's goal is the *best possible* QoS, not all-or-nothing admission:
when the distribution tier cannot fit the graph configured at the user's
preferred QoS, a soft-QoS system should retry at progressively lower
levels rather than reject ("the user can continue his or her tasks with
minimum QoS degradations").

A :class:`DegradationLadder` is an ordered list of user-QoS vectors, best
first. :class:`DegradingConfigurator` wraps a
:class:`~repro.runtime.configurator.ServiceConfigurator` and walks the
ladder: each level re-composes the application with that user QoS (the
composer's corrections then tune adjustable outputs / pick lighter
components) and attempts distribution; the first level that deploys wins.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.composition.composer import CompositionRequest
from repro.distribution.pareto import (
    ParetoPoint,
    UtilityProfile,
    level_prior,
)
from repro.graph.service_graph import ServiceEdge
from repro.qos.vectors import QoSVector
from repro.runtime.configurator import ServiceConfigurator
from repro.runtime.session import ApplicationSession, ConfigurationRecord


@dataclass(frozen=True)
class QoSLevel:
    """One rung of the ladder.

    ``demand_scale`` models rate-proportional resource consumption: media
    components' CPU/bandwidth demand scales roughly with the processed
    rate, so admitting at half the frame rate costs about half the demand.
    The composed graph's resource vectors and edge throughputs are
    multiplied by this factor before distribution.
    """

    label: str
    user_qos: QoSVector
    demand_scale: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.demand_scale <= 1.0:
            raise ValueError("demand_scale must be in (0, 1]")


@dataclass(frozen=True)
class DegradationLadder:
    """Ordered QoS levels, best first."""

    levels: Tuple[QoSLevel, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("a degradation ladder needs at least one level")

    @classmethod
    def of(cls, *levels: QoSLevel) -> "DegradationLadder":
        return cls(tuple(levels))

    @classmethod
    def rate_ladder(
        cls, parameter: str, rates: Sequence[float]
    ) -> "DegradationLadder":
        """A ladder over one numeric rate parameter, best (highest) first.

        Demand scales are the rate's fraction of the best level's rate.
        """
        ordered = sorted(rates, reverse=True)
        best = ordered[0]
        return cls(
            tuple(
                QoSLevel(
                    label=f"{parameter}={rate:g}",
                    user_qos=QoSVector({parameter: rate}),
                    demand_scale=rate / best,
                )
                for rate in ordered
            )
        )

    def __len__(self) -> int:
        return len(self.levels)

    def prior_points(self) -> Tuple[ParetoPoint, ...]:
        """Each level's a-priori objective point, in ladder order.

        The estimate a utility profile can rank before any level has been
        planned (see :func:`repro.distribution.pareto.level_prior`);
        measured points from actual plans refine these per domain.
        """
        return tuple(
            level_prior(level.demand_scale, level.label, position=index)
            for index, level in enumerate(self.levels)
        )

    def order_for(
        self,
        profile: Optional[UtilityProfile],
        points: Optional[Sequence[Optional[ParetoPoint]]] = None,
    ) -> List[int]:
        """Level indices in the order a request class should try them.

        Without a profile this is the classic best-fidelity-first walk
        (``[0, 1, ...]`` — byte-compatible with the fixed ladder). With a
        profile, levels are ranked by the profile's utility over their
        objective points — measured ``points`` where available (None
        entries fall back to the level's prior) — with the ladder
        position as the deterministic tie-break.
        """
        indices = list(range(len(self.levels)))
        if profile is None:
            return indices
        priors = self.prior_points()
        candidates: List[ParetoPoint] = []
        for index in indices:
            point = points[index] if points is not None else None
            if point is None:
                point = priors[index]
            else:
                # Pin the measured point's fidelity axis to the level's
                # definitional loss so mixed measured/prior rankings stay
                # on one scale.
                point = dataclasses.replace(
                    point,
                    fidelity_loss=1.0 - self.levels[index].demand_scale,
                )
            candidates.append(point)
        return profile.order(candidates)


def _scale_component(component, factor: float):
    return component.with_resources(component.resources * factor)


def _scale_edge(edge, factor: float):
    return ServiceEdge(edge.source, edge.target, edge.throughput_mbps * factor)


def _scale_payload(scale, payload, factor: float):
    return scale(payload, factor)


def scale_graph_demand(graph, factor: float, memo: Optional["ScaledPayloads"] = None):
    """Scale every component's R vector and edge throughput by ``factor``.

    Returns a new graph; the input is untouched. Factor 1.0 returns the
    graph unchanged (identity). The result is a structural copy of the
    input (see :meth:`~repro.graph.service_graph.ServiceGraph.map_payloads`):
    it inherits the input's memoized adjacency and topological order, and
    each component is swapped through the trusted
    :meth:`~repro.graph.service_graph.ServiceComponent.with_resources`
    copy. Floats, orders and :attr:`version` equal those of rebuilding the
    graph node by node. With a ``memo``, each payload is scaled once per
    factor and later graphs share the scaled objects.
    """
    if factor == 1.0:
        return graph
    scale = _scale_payload if memo is None else memo.scaled
    return graph.map_payloads(
        component=lambda c: scale(_scale_component, c, factor),
        edge=lambda e: scale(_scale_edge, e, factor),
    )


class ScaledPayloads:
    """A memo of graph payloads scaled by :func:`scale_graph_demand`.

    Composed graphs are structural copies of one template per request
    class and share its immutable components and edges, so a payload
    scaled for one request at a rung is the same object the next request
    at that rung needs. Entries are keyed on ``(id(payload), factor)`` and
    hold the original payload, so its id cannot be reused while the entry
    lives. At most :attr:`MAX_ENTRIES` payloads are kept: a full memo is
    emptied, one atomic step, so threads sharing it never evict the same
    entry twice. A race costs at most one payload scaled twice, into
    equal objects.
    """

    #: The benchmark's profile mesh (five conference classes, four room
    #: clients, two scaled rungs) fills 290.
    MAX_ENTRIES = 1024

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, float], Tuple[object, object]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def scaled(self, scale, payload, factor: float):
        """``scale(payload, factor)``, computed once per payload and factor."""
        entries = self._entries
        key = (id(payload), factor)
        entry = entries.get(key)
        if entry is None:
            if len(entries) >= self.MAX_ENTRIES:
                entries.clear()
            entry = entries[key] = (payload, scale(payload, factor))
        return entry[1]


@dataclass
class DegradedOutcome:
    """Which level (if any) was admitted, and the attempts made."""

    session: ApplicationSession
    admitted_level: Optional[str]
    attempts: List[ConfigurationRecord] = field(default_factory=list)

    @property
    def success(self) -> bool:
        return self.admitted_level is not None

    @property
    def degraded(self) -> bool:
        """True when admission happened below the top level."""
        return self.success and bool(self.attempts) and (
            self.attempts[0].label != self.attempts[-1].label
        )


class DegradingConfigurator:
    """Walks a degradation ladder until a level is admitted."""

    def __init__(
        self,
        configurator: ServiceConfigurator,
        ladder: DegradationLadder,
    ) -> None:
        self.configurator = configurator
        self.ladder = ladder

    def start_with_degradation(
        self,
        request: CompositionRequest,
        user_id: Optional[str] = None,
        skip_downloads: bool = False,
        utility_profile: Optional[UtilityProfile] = None,
    ) -> DegradedOutcome:
        """Try ladder levels in preference order; stop at first admission.

        Without a ``utility_profile`` the walk is the classic best-first
        descent. With one, levels are tried in the profile's utility
        order over their prior objective points (a battery-saver profile
        tries the cheapest level first and *ascends* in its preference
        order), so the front point a class values most is attempted
        before less-preferred trade-offs.

        The returned outcome's session is RUNNING at the admitted level, or
        FAILED (having tried every level). Each attempt appears in the
        session's timeline with the level's label.
        """
        session = self.configurator.create_session(request, user_id=user_id)
        outcome = DegradedOutcome(session=session, admitted_level=None)
        order = self.ladder.order_for(utility_profile)
        for index in order:
            level = self.ladder.levels[index]
            session.request = dataclasses.replace(
                session.request, user_qos=level.user_qos
            )
            # Reset a failed previous attempt so start() may run again.
            from repro.runtime.session import SessionState

            if session.state is SessionState.FAILED:
                session.state = SessionState.NEW
            record = session.start(
                label=f"admit@{level.label}",
                skip_downloads=skip_downloads,
                graph_transform=lambda g, f=level.demand_scale: scale_graph_demand(
                    g, f
                ),
            )
            outcome.attempts.append(record)
            if record.success:
                outcome.admitted_level = level.label
                break
        return outcome
