"""Seedable arrival-trace generation for the serving-layer experiments.

The Figure 5 trace fixes a request *count* over a horizon; a server
experiment instead fixes an arrival *rate* and lets the count fall where
it may, which is what a load-multiplier sweep needs. Two interarrival
processes are offered:

- ``poisson`` — exponential interarrivals (memoryless, the paper's
  implicit model);
- ``pareto`` — heavy-tailed interarrivals (bursty: long quiet gaps
  between packed bursts), the standard stress case for admission control.

Holding times are exponential or Pareto, truncated into explicit bounds.
Everything is driven by one ``random.Random(seed)``, so a trace is a pure
function of its parameters — the determinism the sim driver's
byte-identical-metrics guarantee rests on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple


@dataclass(frozen=True)
class ArrivalEvent:
    """One request arrival (times in seconds)."""

    request_id: int
    arrival_s: float
    duration_s: float
    graph_index: int
    priority: int = 0

    @property
    def departure_s(self) -> float:
        return self.arrival_s + self.duration_s


@dataclass(frozen=True)
class ArrivalTrace:
    """An arrival trace plus the horizon it was generated over."""

    events: Tuple[ArrivalEvent, ...]
    horizon_s: float

    def __iter__(self) -> Iterator[ArrivalEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)

    def offered_rate_per_s(self) -> float:
        """Realized arrival rate over the horizon."""
        if self.horizon_s <= 0:
            return 0.0
        return len(self.events) / self.horizon_s


def _interarrival(
    rng: random.Random, process: str, mean_gap_s: float, pareto_alpha: float
) -> float:
    if process == "poisson":
        return rng.expovariate(1.0 / mean_gap_s)
    if process == "pareto":
        # paretovariate(alpha) >= 1 with mean alpha/(alpha-1); rescale so
        # the gap's mean is mean_gap_s while keeping the heavy tail.
        return (
            mean_gap_s
            * (pareto_alpha - 1.0)
            / pareto_alpha
            * rng.paretovariate(pareto_alpha)
        )
    raise ValueError(f"unknown arrival process {process!r}")


def _duration(
    rng: random.Random,
    process: str,
    mean_s: float,
    bounds: Tuple[float, float],
    pareto_alpha: float,
) -> float:
    low, high = bounds
    if process == "exponential":
        raw = rng.expovariate(1.0 / mean_s)
    elif process == "pareto":
        raw = (
            mean_s * (pareto_alpha - 1.0) / pareto_alpha
        ) * rng.paretovariate(pareto_alpha)
    else:
        raise ValueError(f"unknown duration process {process!r}")
    return min(high, max(low, raw))


def arrival_trace(
    seed: int,
    rate_per_s: float,
    horizon_s: float,
    arrival_process: str = "poisson",
    duration_process: str = "exponential",
    mean_duration_s: float = 60.0,
    duration_bounds_s: Tuple[float, float] = (1.0, 600.0),
    pareto_alpha: float = 1.8,
    graph_count: int = 1,
    priorities: Sequence[int] = (0,),
) -> ArrivalTrace:
    """Generate a trace of request arrivals, deterministically per seed."""
    # Written as ``not (ok)`` so NaN fails every guard: a NaN rate or an
    # infinite horizon would otherwise never reach the loop's exit.
    if not 0 < rate_per_s < math.inf:
        raise ValueError("arrival rate must be positive and finite")
    if not 0 < horizon_s < math.inf:
        raise ValueError("horizon must be positive and finite")
    if not 0 < mean_duration_s < math.inf:
        raise ValueError("mean duration must be positive and finite")
    if not -math.inf < duration_bounds_s[0] <= duration_bounds_s[1] < math.inf:
        raise ValueError("duration bounds must be finite and ordered")
    if not 1.0 < pareto_alpha < math.inf:
        raise ValueError("pareto_alpha must exceed 1 for a finite mean")
    if graph_count < 1:
        raise ValueError("need at least one graph")
    if not priorities:
        raise ValueError("need at least one priority level")
    rng = random.Random(seed)
    mean_gap_s = 1.0 / rate_per_s
    events = []
    clock = 0.0
    index = 0
    while True:
        clock += _interarrival(rng, arrival_process, mean_gap_s, pareto_alpha)
        if clock >= horizon_s:
            break
        events.append(
            ArrivalEvent(
                request_id=index,
                arrival_s=clock,
                duration_s=_duration(
                    rng,
                    duration_process,
                    mean_duration_s,
                    duration_bounds_s,
                    pareto_alpha,
                ),
                graph_index=rng.randrange(graph_count),
                priority=rng.choice(list(priorities)),
            )
        )
        index += 1
    return ArrivalTrace(events=tuple(events), horizon_s=horizon_s)
