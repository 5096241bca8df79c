"""Service discovery substrate.

The composition tier assumes "a service discovery service is available to
find the service instances that are closest to the abstract service
descriptions" (Section 3.1), taking into account the user's QoS requirements
and the properties of the client device. This subpackage provides the
registry of concrete service descriptions, the closest-match scorer, and the
discovery service facade.
"""

from repro.discovery.registry import ServiceDescription, ServiceRegistry
from repro.discovery.matching import DiscoveryContext, MatchScorer, MatchWeights
from repro.discovery.service import DiscoveryService

__all__ = [
    "ServiceDescription",
    "ServiceRegistry",
    "DiscoveryContext",
    "MatchScorer",
    "MatchWeights",
    "DiscoveryService",
]
