"""Geo-federated multi-cluster serving (the federation tier).

One :class:`~repro.server.cluster.DomainCluster` serves one smart space;
the federation tier joins many such spaces — campus, home, vehicular —
each with its own registry, topology and shards, under one routing front
door. Clusters compose locally and exchange only summarized
:class:`~repro.federation.digest.ClusterDigest` views (capacity, queue
depth, degradation-ladder headroom, coarse service reachability) instead
of full registries; sessions migrate *between* clusters over a modeled
WAN fabric with a two-phase commit-release protocol that extends the
make-before-break roamer across ledger boundaries.
"""

from repro.federation.digest import ClusterDigest, DigestBoard
from repro.federation.fabric import FederationFabric, InterClusterLink
from repro.federation.migration import (
    MIGRATION_PHASES,
    MigrationOutcome,
    MigrationSchedule,
    SessionMigrator,
)
from repro.federation.tier import (
    FederatedRequest,
    FederationMember,
    FederationMetrics,
    FederationOutcome,
    FederationTier,
)

__all__ = [
    "ClusterDigest",
    "DigestBoard",
    "FederationFabric",
    "InterClusterLink",
    "MIGRATION_PHASES",
    "MigrationOutcome",
    "MigrationSchedule",
    "SessionMigrator",
    "FederatedRequest",
    "FederationMember",
    "FederationMetrics",
    "FederationOutcome",
    "FederationTier",
]
