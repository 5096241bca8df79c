"""Service distribution tier (Section 3.3).

Given a QoS-consistent service graph and the k currently available devices,
the service distributor finds a k-cut of the graph that *fits into* the
devices (Definition 3.4: per-device resource sums within availability,
per-pair cut throughput within end-to-end bandwidth) and minimises the
*cost aggregation* (Definition 3.5). The optimal problem is NP-hard
(Theorem 1); the paper contributes a greedy polynomial heuristic, which is
compared against exhaustive-optimal, random and fixed baselines in the
evaluation.
"""

from repro.distribution.fit import (
    CandidateDevice,
    DistributionEnvironment,
    FitViolation,
    fit_violations,
    fits_into,
)
from repro.distribution.cost import CostWeights, cost_aggregation
from repro.distribution.incremental import DeltaEvaluator, SearchState
from repro.distribution.heuristic import HeuristicDistributor
from repro.distribution.optimal import OptimalDistributor
from repro.distribution.baselines import FixedDistributor, RandomDistributor
from repro.distribution.local_search import LocalSearchDistributor
from repro.distribution.distributor import (
    DistributionResult,
    DistributionStrategy,
    ServiceDistributor,
)
from repro.distribution.pareto import (
    ParetoFront,
    ParetoPoint,
    UtilityProfile,
    UTILITY_PROFILES,
    assignment_objectives,
    dominates,
    profile_names,
    utility_profile,
)

__all__ = [
    "CandidateDevice",
    "DistributionEnvironment",
    "FitViolation",
    "fit_violations",
    "fits_into",
    "CostWeights",
    "cost_aggregation",
    "DeltaEvaluator",
    "SearchState",
    "HeuristicDistributor",
    "OptimalDistributor",
    "FixedDistributor",
    "RandomDistributor",
    "LocalSearchDistributor",
    "DistributionResult",
    "DistributionStrategy",
    "ServiceDistributor",
    "ParetoFront",
    "ParetoPoint",
    "UtilityProfile",
    "UTILITY_PROFILES",
    "assignment_objectives",
    "dominates",
    "profile_names",
    "utility_profile",
]
