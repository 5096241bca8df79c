"""The domain configuration service: concurrent multi-session admission.

The paper's configurator handles one request at a time; a domain server in
a real smart space fields requests from every user in the room. This
package is the serving layer in front of
:class:`~repro.runtime.configurator.ServiceConfigurator`:

- :mod:`repro.server.ledger` — a transactional resource-reservation ledger
  over the domain's devices and links (two-phase admit/commit/abort), so
  overlapping configurations can never double-book capacity;
- :mod:`repro.server.queue` — a bounded request queue with FIFO and
  priority policies and per-request deadlines;
- :mod:`repro.server.admission` — the admission controller: walks a
  chunk of requests down the degradation ladder in grouped ledger
  prepare/commit rounds against one shared environment snapshot, and
  applies load shedding with retry-after backpressure;
- :mod:`repro.server.metrics` — per-run counters and latency percentiles,
  exported as deterministic JSON;
- :mod:`repro.server.service` — the front end tying the pieces together,
  served in chunks sized by a :class:`BatchPolicy`;
- :mod:`repro.server.drivers` — a thread-pool driver (real concurrency)
  and a sim-kernel driver (deterministic trace replay), each driving a
  service, a cluster or a federation tier, plus the one replay and one
  burst harness every sweep and scenario run goes through;
- :mod:`repro.server.batching` — a service drained in multi-request
  chunks;
- :mod:`repro.server.cluster` — the sharded multi-domain cluster: a
  pluggable shard router (consistent hashing / power-of-two-choices,
  named in one registry),
  cross-shard overflow, and merged cluster metrics.
"""

from repro.server.ledger import (
    LedgerConflictError,
    ReservationLedger,
    ReservationTransaction,
    TransactionState,
)
from repro.server.queue import (
    BoundedRequestQueue,
    PutResult,
    QueuedRequest,
    QueuePolicy,
)
from repro.server.metrics import LatencyRecorder, ServerMetrics
from repro.server.admission import (
    AdmissionController,
    AdmissionResult,
    OverloadPolicy,
)
from repro.server.service import (
    UNBATCHED,
    BatchPolicy,
    DomainConfigurationService,
    RequestOutcome,
    RequestStatus,
    ServerRequest,
)
from repro.server.drivers import (
    ServingTarget,
    SimulatedServerDriver,
    ThreadPoolDriver,
)
from repro.server.batching import BatchingDomainService
from repro.server.cluster import (
    ClusterMetrics,
    ClusterOutcome,
    ConsistentHashRouter,
    DomainCluster,
    LeastLoadedRouter,
    ShardRouter,
)

__all__ = [
    "LedgerConflictError",
    "ReservationLedger",
    "ReservationTransaction",
    "TransactionState",
    "BoundedRequestQueue",
    "PutResult",
    "QueuedRequest",
    "QueuePolicy",
    "LatencyRecorder",
    "ServerMetrics",
    "AdmissionController",
    "AdmissionResult",
    "OverloadPolicy",
    "DomainConfigurationService",
    "RequestOutcome",
    "RequestStatus",
    "ServerRequest",
    "ServingTarget",
    "SimulatedServerDriver",
    "ThreadPoolDriver",
    "BatchingDomainService",
    "BatchPolicy",
    "UNBATCHED",
    "ClusterMetrics",
    "ClusterOutcome",
    "ConsistentHashRouter",
    "DomainCluster",
    "LeastLoadedRouter",
    "ShardRouter",
]
