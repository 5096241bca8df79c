"""Service graphs.

The paper models an application as a directed acyclic graph of autonomous
service components (a *service graph*, Section 2). This subpackage contains
the concrete service graph used by both configuration tiers, the *abstract*
service graph supplied by developers (Section 3.2), the k-cut machinery of
the distribution tier (Definitions 3.3–3.5), and random graph generators
used by the simulation experiments.
"""

from repro.graph.service_graph import (
    CycleError,
    GraphValidationError,
    ServiceComponent,
    ServiceEdge,
    ServiceGraph,
)
from repro.graph.abstract import (
    AbstractComponentSpec,
    AbstractServiceGraph,
    PinConstraint,
)
from repro.graph.cuts import Assignment
from repro.graph.generators import RandomGraphConfig, random_service_graph

__all__ = [
    "CycleError",
    "GraphValidationError",
    "ServiceComponent",
    "ServiceEdge",
    "ServiceGraph",
    "AbstractComponentSpec",
    "AbstractServiceGraph",
    "PinConstraint",
    "Assignment",
    "RandomGraphConfig",
    "random_service_graph",
]
