"""The batching domain service: chunks bigger than one.

Every service is served in chunks by the shared core,
:meth:`~repro.server.service.DomainConfigurationService.serve_chunk`: it
sheds a chunk's expired requests and walks the rest down the degradation
ladder together through
:meth:`~repro.server.admission.AdmissionController.walk` — one shared
environment snapshot per round, one ledger lock for the round's
``prepare_many`` and one for its ``commit_many``. A plain service's
:class:`~repro.server.service.BatchPolicy` drains one request per flush.
:class:`BatchingDomainService` carries a bigger policy, so the drivers
hand it multi-request chunks and the lock round trips are amortized over
the chunk; it also records the size of every chunk it serves.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.server.queue import QueuedRequest
from repro.server.service import (
    BatchPolicy,
    DomainConfigurationService,
    RequestOutcome,
)

__all__ = ["BatchingDomainService", "BatchPolicy"]


class BatchingDomainService(DomainConfigurationService):
    """A domain service drained in chunks of up to ``batch.max_batch_size``.

    Takes every :class:`DomainConfigurationService` argument plus
    ``batch`` (default :class:`BatchPolicy()`). The front door is
    unchanged — batching is a worker-side amortization, invisible to
    clients.
    """

    def __init__(
        self, *args, batch: Optional[BatchPolicy] = None, **kwargs
    ) -> None:
        super().__init__(*args, **kwargs)
        self.batch = batch or BatchPolicy()
        self._batch_sizes = self.metrics.registry.histogram(
            self.metrics.namespace + ".batch_size"
        )

    def process_batch(
        self, max_size: Optional[int] = None
    ) -> List[RequestOutcome]:
        """Drain one chunk from the queue and serve it.

        Returns the final outcomes in drain order; empty list when the
        queue was empty. ``max_size`` overrides the policy's batch cap for
        this call.
        """
        items = self.queue.pop_many(max_size or self.batch.max_batch_size)
        if not items:
            return []
        return self.serve_chunk(items)

    def serve_chunk(
        self, queued: Sequence[QueuedRequest]
    ) -> List[RequestOutcome]:
        """Record the chunk's size, then serve it like any service."""
        self._batch_sizes.record(float(len(queued)))
        return super().serve_chunk(queued)
