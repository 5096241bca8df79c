"""Seeded random distributions for the workload models.

All helpers take an explicit ``random.Random`` so experiments stay
reproducible; nothing here touches the global RNG.
"""

from __future__ import annotations

import random
from typing import List


def exponential(rng: random.Random, mean: float) -> float:
    """One exponential variate with the given mean."""
    if mean <= 0:
        raise ValueError("mean must be positive")
    return rng.expovariate(1.0 / mean)


def bounded_exponential(
    rng: random.Random, mean: float, low: float, high: float
) -> float:
    """An exponential variate clamped into [low, high].

    Figure 5's workload states "the length of each application is
    exponentially distributed from 5 minutes to 1 hour[]"; we read that as
    exponential holding times truncated to that interval.
    """
    if low > high:
        raise ValueError("low bound exceeds high bound")
    return min(high, max(low, exponential(rng, mean)))


def poisson_arrival_times(
    rng: random.Random, count: int, horizon: float
) -> List[float]:
    """``count`` arrival instants over [0, horizon).

    A Poisson process conditioned on its count is ``count`` iid uniform
    points — so we draw exactly the experiment's request budget (e.g.
    Figure 5's 5000 requests over 1000 hours) with Poisson statistics.
    Returned sorted.
    """
    if count < 0:
        raise ValueError("count cannot be negative")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    times = sorted(rng.uniform(0.0, horizon) for _ in range(count))
    return times
