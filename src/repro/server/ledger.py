"""The transactional resource-reservation ledger.

Every session books its capacity here: each
:class:`~repro.runtime.configurator.ServiceConfigurator` owns one ledger,
and its deployer only downloads and starts what the ledger committed.
Planning checks Definition 3.4 against a snapshot of device availability,
and under concurrency that snapshot is a race: two interleaved
``start()`` calls can both pass the fit check against the same
availability and double-book a device or a link. The ledger closes the
race with optimistic two-phase admission:

1. :meth:`ReservationLedger.environment` — an availability snapshot that
   already subtracts other transactions' *pending* holds, so planners see
   capacity that is still genuinely up for grabs;
2. :meth:`ReservationLedger.prepare` — under the ledger lock, re-validate
   the planned assignment against live availability minus pending holds
   and, if it fits, record holds for every device and link it touches
   (this is the serialization point — a plan that raced a concurrent
   commit fails here with :class:`LedgerConflictError` and can simply be
   re-planned against a fresh snapshot);
3. :meth:`ReservationLedger.commit` — convert the holds into real device
   allocations and bandwidth reservations, still under the lock; the
   transaction keeps the release tokens;
4. :meth:`ReservationLedger.abort` / :meth:`ReservationLedger.release` —
   drop a pending transaction, or retire a committed one. The ledger
   then forgets it: only live (pending, prepared or committed)
   transactions stay in its table.

Invariant (checked by :meth:`audit`): at every instant, each device's
committed allocations fit within its capacity and each link pair's
committed reservations fit within its end-to-end capacity.
"""

from __future__ import annotations

import enum
import itertools
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.distribution.fit import CandidateDevice, DistributionEnvironment
from repro.domain.device import ResourceAllocation
from repro.domain.domain import DomainServer
from repro.graph.cuts import Assignment
from repro.graph.service_graph import ServiceGraph
from repro.network.topology import BandwidthReservation
from repro.observability.tracing import get_tracer
from repro.resources.vectors import ZERO, ResourceVector
from repro.store.records import LedgerEvent, LedgerEventKind


def _pair(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _net(
    available: ResourceVector, pending: Optional[ResourceVector]
) -> ResourceVector:
    """Availability net of a pending hold; the vector itself when none."""
    return available if pending is None else available - pending


class LedgerConflictError(RuntimeError):
    """A transaction lost a race: the capacity it planned for is gone.

    Carries human-readable ``conflicts`` describing each violated device
    or link constraint. The caller should re-plan against a fresh
    :meth:`ReservationLedger.environment` snapshot (or degrade).
    """

    def __init__(self, message: str, conflicts: Tuple[str, ...] = ()) -> None:
        super().__init__(message)
        self.conflicts = conflicts


class TransactionState(enum.Enum):
    PENDING = "pending"
    PREPARED = "prepared"
    COMMITTED = "committed"
    ABORTED = "aborted"
    RELEASED = "released"


#: States a transaction never leaves; the ledger forgets it on entry.
_FINISHED = (TransactionState.ABORTED, TransactionState.RELEASED)


@dataclass
class ReservationTransaction:
    """One two-phase admission attempt's holds and (later) release tokens."""

    txn_id: int
    owner: str
    state: TransactionState = TransactionState.PENDING
    device_holds: Dict[str, ResourceVector] = field(default_factory=dict)
    link_holds: Dict[Tuple[str, str], float] = field(default_factory=dict)
    allocations: List[ResourceAllocation] = field(default_factory=list)
    reservations: List[BandwidthReservation] = field(default_factory=list)
    # The holds in LedgerEvent form, packed once at prepare for the audit
    # trail's PREPARED and COMMITTED events (None while nothing is packed).
    packed_holds: Optional[Tuple[tuple, tuple]] = field(
        default=None, repr=False, compare=False
    )


class ReservationLedger:
    """Serializes resource admission for one domain.

    All admission and release of server-managed sessions must flow through
    the ledger; its lock is the only synchronization the otherwise
    lock-free :class:`~repro.domain.device.Device` /
    :class:`~repro.network.topology.NetworkTopology` mutation needs.
    ``version`` increases on every state change, giving snapshot consumers
    (the configurator's environment cache) an O(1) staleness token.
    """

    def __init__(self, server: DomainServer) -> None:
        self.server = server
        self._lock = threading.RLock()
        self._ids = itertools.count(1)
        self._version = 0
        # Live transactions only: _finish drops aborted and released ones.
        self._transactions: Dict[int, ReservationTransaction] = {}
        # Aggregated holds of PREPARED (not yet committed) transactions.
        self._pending_device: Dict[str, ResourceVector] = {}
        self._pending_link: Dict[Tuple[str, str], float] = {}
        # utilization() memo: ((ledger version, domain snapshot), value).
        self._utilization_memo: Optional[Tuple[tuple, float]] = None
        # Optional durable audit trail (see attach_store): None = silent.
        self._store = None
        self._store_epoch = 0
        self._store_clock: Callable[[], float] = lambda: 0.0

    @property
    def version(self) -> int:
        """Change counter; equal versions imply identical ledger state."""
        return self._version

    def attach_store(
        self,
        store,
        epoch: int,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        """Mirror every state transition into a durable audit trail.

        ``store`` is a :class:`~repro.store.base.RecordStore`; ``epoch``
        tags the events with the owning service's boot epoch so a
        restarted process can tell its predecessor's open holds from its
        own. Detached (the default) the ledger writes nothing — the
        in-memory fast path is byte-for-byte unchanged.
        """
        with self._lock:
            self._store = store
            self._store_epoch = epoch
            self._store_clock = clock or (lambda: 0.0)

    def _record_event(
        self,
        txn: ReservationTransaction,
        kind: str,
        with_holds: bool = False,
    ) -> None:
        """Append one audit event to the attached store (no-op detached).

        Called under the ledger lock at each transition point, so event
        order in the store matches the serialization order of the ledger.
        """
        if self._store is None:
            return
        device_holds: tuple = ()
        link_holds: tuple = ()
        if with_holds:
            # Holds are fixed from prepare on, so one packing serves both
            # the PREPARED and the COMMITTED event.
            if txn.packed_holds is None:
                txn.packed_holds = (
                    LedgerEvent.pack_devices(txn.device_holds),
                    LedgerEvent.pack_links(txn.link_holds),
                )
            device_holds, link_holds = txn.packed_holds
        self._store.append_ledger_event(
            LedgerEvent(
                epoch=self._store_epoch,
                txn_id=txn.txn_id,
                kind=kind,
                at_s=self._store_clock(),
                owner=txn.owner,
                device_holds=device_holds,
                link_holds=link_holds,
            )
        )

    # -- lifecycle -----------------------------------------------------------------

    def begin(self, owner: str = "") -> ReservationTransaction:
        """Open a new transaction (cheap; holds nothing yet)."""
        with self._lock:
            txn = ReservationTransaction(next(self._ids), owner)
            self._transactions[txn.txn_id] = txn
            return txn

    def prepare(
        self,
        txn: ReservationTransaction,
        graph: ServiceGraph,
        assignment: Assignment,
    ) -> None:
        """Validate and hold the assignment's capacity, atomically.

        Raises :class:`LedgerConflictError` (leaving the transaction
        PENDING and the ledger untouched) when any device or link no
        longer has room once live allocations *and* other transactions'
        pending holds are counted.
        """
        with get_tracer().span(
            "ledger.prepare", txn=txn.txn_id, owner=txn.owner
        ) as span:
            self._prepare(txn, graph, assignment)
            span.set("devices", len(txn.device_holds))
            span.set("links", len(txn.link_holds))

    def prepare_many(
        self,
        items: Sequence[
            Tuple[ReservationTransaction, ServiceGraph, Assignment]
        ],
    ) -> List[Optional[LedgerConflictError]]:
        """Validate and hold a whole batch under ONE lock acquisition.

        Items are processed in order; each sees live availability minus the
        pending holds of everything already prepared — including earlier
        items of the same batch, so a batch can never over-book even when
        its members were all planned against the same snapshot. Returns one
        entry per item: ``None`` when the transaction is now PREPARED, or
        the :class:`LedgerConflictError` that left it PENDING (re-plan it
        against a fresh snapshot, exactly as for a single conflict).
        """
        with get_tracer().span("ledger.prepare_many", size=len(items)) as span:
            results: List[Optional[LedgerConflictError]] = []
            with self._lock:
                for txn, graph, assignment in items:
                    try:
                        self._prepare_locked(txn, graph, assignment)
                        results.append(None)
                    except LedgerConflictError as exc:
                        results.append(exc)
            conflicts = sum(1 for r in results if r is not None)
            span.set("prepared", len(results) - conflicts)
            span.set("conflicts", conflicts)
            return results

    def _prepare(
        self,
        txn: ReservationTransaction,
        graph: ServiceGraph,
        assignment: Assignment,
    ) -> None:
        with self._lock:
            self._prepare_locked(txn, graph, assignment)

    def _prepare_locked(
        self,
        txn: ReservationTransaction,
        graph: ServiceGraph,
        assignment: Assignment,
    ) -> None:
        self._require(txn, TransactionState.PENDING)
        loads = assignment.device_loads(graph)
        links = self._link_demand(assignment, graph)
        conflicts: List[str] = []
        for device_id in sorted(loads):
            load = loads[device_id]
            try:
                device = self.server.domain.device(device_id)
            except KeyError:
                conflicts.append(f"device {device_id!r} left the domain")
                continue
            if not device.online:
                conflicts.append(f"device {device_id!r} is offline")
                continue
            available = _net(
                device.available(), self._pending_device.get(device_id)
            )
            if not load.fits_within(available):
                conflicts.append(
                    f"device {device_id!r}: load {dict(load)!r} exceeds "
                    f"effective availability"
                )
        network = self.server.network
        for pair in sorted(links):
            demand = links[pair]
            headroom = network.available_bandwidth(
                *pair
            ) - self._pending_link.get(pair, 0.0)
            if demand > headroom + 1e-9:
                conflicts.append(
                    f"link {pair[0]}<->{pair[1]}: {demand:g} Mbps exceeds "
                    f"{max(0.0, headroom):g} Mbps headroom"
                )
        if conflicts:
            raise LedgerConflictError(
                f"transaction {txn.txn_id} cannot be prepared: "
                + "; ".join(conflicts),
                tuple(conflicts),
            )
        txn.device_holds = loads
        txn.link_holds = links
        for device_id, load in loads.items():
            current = self._pending_device.get(device_id, ZERO)
            self._pending_device[device_id] = current + load
        for pair, demand in links.items():
            self._pending_link[pair] = (
                self._pending_link.get(pair, 0.0) + demand
            )
        txn.state = TransactionState.PREPARED
        self._version += 1
        self._record_event(txn, LedgerEventKind.PREPARED, with_holds=True)

    def commit(self, txn: ReservationTransaction) -> None:
        """Turn the holds into live allocations/reservations.

        The release tokens stay on the transaction
        (:attr:`~ReservationTransaction.allocations`,
        :attr:`~ReservationTransaction.reservations`) for :meth:`release`.

        Cannot over-book: prepared holds guarantee the capacity, so the
        only failure mode is a device going offline between prepare and
        commit — the transaction is then aborted (partial acquisitions
        rolled back) and :class:`LedgerConflictError` raised.
        """
        with get_tracer().span(
            "ledger.commit", txn=txn.txn_id, owner=txn.owner
        ) as span:
            with self._lock:
                self._commit_locked(txn)
            span.set("allocations", len(txn.allocations))
            span.set("reservations", len(txn.reservations))

    def commit_many(
        self, txns: Sequence[ReservationTransaction]
    ) -> List[Optional[LedgerConflictError]]:
        """Commit a whole batch of PREPARED transactions under ONE lock.

        Returns one entry per transaction: ``None`` when it is now
        COMMITTED, or the :class:`LedgerConflictError` that aborted it (a
        device went offline between prepare and commit — partial
        acquisitions are rolled back per transaction, so one member's
        failure never poisons its batch mates).
        """
        with get_tracer().span("ledger.commit_many", size=len(txns)) as span:
            results: List[Optional[LedgerConflictError]] = []
            with self._lock:
                for txn in txns:
                    try:
                        self._commit_locked(txn)
                        results.append(None)
                    except LedgerConflictError as exc:
                        results.append(exc)
            conflicts = sum(1 for r in results if r is not None)
            span.set("committed", len(results) - conflicts)
            span.set("conflicts", conflicts)
            return results

    def _commit_locked(self, txn: ReservationTransaction) -> None:
        self._require(txn, TransactionState.PREPARED)
        allocations: List[ResourceAllocation] = []
        reservations: List[BandwidthReservation] = []
        try:
            for device_id in sorted(txn.device_holds):
                device = self.server.domain.device(device_id)
                allocations.append(
                    device.allocate(
                        txn.device_holds[device_id], owner=txn.owner
                    )
                )
            for pair in sorted(txn.link_holds):
                reservations.append(
                    self.server.network.reserve(*pair, txn.link_holds[pair])
                )
        except Exception as exc:
            for reservation in reservations:
                self.server.network.release(reservation)
            for allocation in allocations:
                try:
                    device = self.server.domain.device(allocation.device_id)
                except KeyError:
                    continue
                device.release(allocation)
            self._drop_pending(txn)
            self._finish(txn, TransactionState.ABORTED)
            raise LedgerConflictError(
                f"transaction {txn.txn_id} failed to commit: {exc}"
            ) from exc
        self._drop_pending(txn)
        txn.allocations = allocations
        txn.reservations = reservations
        txn.state = TransactionState.COMMITTED
        self._version += 1
        self._record_event(txn, LedgerEventKind.COMMITTED, with_holds=True)

    def abort(self, txn: ReservationTransaction) -> None:
        """Drop a not-yet-committed transaction (idempotent)."""
        with get_tracer().span("ledger.abort", txn=txn.txn_id):
            with self._lock:
                if txn.state is TransactionState.PREPARED:
                    self._drop_pending(txn)
                if txn.state in (TransactionState.PENDING, TransactionState.PREPARED):
                    self._finish(txn, TransactionState.ABORTED)

    def release(self, txn: ReservationTransaction) -> None:
        """Retire a committed transaction, freeing every resource it holds."""
        with get_tracer().span("ledger.release", txn=txn.txn_id):
            with self._lock:
                if txn.state is not TransactionState.COMMITTED:
                    self.abort(txn)
                    return
                for allocation in txn.allocations:
                    try:
                        device = self.server.domain.device(allocation.device_id)
                    except KeyError:
                        continue
                    device.release(allocation)
                for reservation in txn.reservations:
                    self.server.network.release(reservation)
                txn.allocations = []
                txn.reservations = []
                self._finish(txn, TransactionState.RELEASED)

    # -- planning snapshots --------------------------------------------------------

    def environment(
        self,
    ) -> Tuple[DistributionEnvironment, Dict[str, object]]:
        """A distribution environment net of pending holds.

        Device availability is ``available() - pending`` (``available()``
        itself, memoized per device, when nothing is pending) and the bandwidth
        callable reads the live topology minus pending link holds, so a
        planner never sees capacity another in-flight transaction has
        already spoken for.
        """
        with self._lock:
            devices = {
                d.device_id: d for d in self.server.available_devices()
            }
            pending_device = dict(self._pending_device)
            pending_link = dict(self._pending_link)
            candidates = [
                CandidateDevice(
                    device_id,
                    _net(device.available(), pending_device.get(device_id)),
                )
                for device_id, device in devices.items()
            ]
        topology = self.server.network

        def bandwidth(first: str, second: str) -> float:
            base = topology.available_bandwidth(first, second)
            return max(0.0, base - pending_link.get(_pair(first, second), 0.0))

        return DistributionEnvironment(candidates, bandwidth=bandwidth), devices

    def utilization(self) -> float:
        """Worst-case committed+pending fraction across devices, in [0, 1].

        The admission controller's overload signal: 1.0 means some device
        has no headroom on some resource. Memoized on the ledger version
        (pending holds) plus the domain snapshot version (membership and
        every online device's allocations, including ones made outside the
        ledger, such as fault-injected resource pressure).
        """
        with self._lock:
            token = (self._version, self.server.snapshot_version())
            memo = self._utilization_memo
            if memo is not None and memo[0] == token:
                return memo[1]
            worst = 0.0
            for device in self.server.available_devices():
                used = device.allocated
                pending = self._pending_device.get(device.device_id)
                if pending is not None:
                    used = used + pending
                for name, cap in device.capacity.items():
                    if cap <= 0:
                        continue
                    worst = max(worst, min(1.0, used.get(name, 0.0) / cap))
            self._utilization_memo = (token, worst)
            return worst

    # -- invariants ---------------------------------------------------------------

    def audit(self) -> List[str]:
        """Check the no-over-booking invariant; empty list = healthy.

        Verifies, under the lock: every online device's live allocations
        fit its capacity; the summed holds of committed transactions fit
        each device's capacity; and per-pair committed bandwidth fits the
        pair's end-to-end capacity.
        """
        with self._lock:
            problems: List[str] = []
            for device in self.server.domain.devices(online_only=True):
                if not device.allocated.fits_within(device.capacity):
                    problems.append(
                        f"device {device.device_id!r} over-booked: "
                        f"{dict(device.allocated)!r} > {dict(device.capacity)!r}"
                    )
            committed: Dict[str, ResourceVector] = {}
            for txn in self._transactions.values():
                if txn.state is not TransactionState.COMMITTED:
                    continue
                for device_id, load in txn.device_holds.items():
                    current = committed.get(device_id, ZERO)
                    committed[device_id] = current + load
            for device_id, total in sorted(committed.items()):
                try:
                    device = self.server.domain.device(device_id)
                except KeyError:
                    continue
                if device.online and not total.fits_within(device.capacity):
                    problems.append(
                        f"ledger over-committed device {device_id!r}: "
                        f"{dict(total)!r} > {dict(device.capacity)!r}"
                    )
            network = self.server.network
            per_pair: Dict[Tuple[str, str], float] = {}
            for reservation in network.active_reservations():
                if reservation.first == reservation.second:
                    continue
                key = _pair(reservation.first, reservation.second)
                per_pair[key] = per_pair.get(key, 0.0) + reservation.bandwidth_mbps
            for pair, used in sorted(per_pair.items()):
                capacity = network.pair_capacity(*pair)
                if used > capacity + 1e-6:
                    problems.append(
                        f"link {pair[0]}<->{pair[1]} over-booked: "
                        f"{used:g} Mbps reserved > {capacity:g} Mbps capacity"
                    )
            return problems

    # -- internals ----------------------------------------------------------------

    @staticmethod
    def _link_demand(
        assignment: Assignment, graph: ServiceGraph
    ) -> Dict[Tuple[str, str], float]:
        """Cut traffic aggregated per unordered pair (topology accounting)."""
        demand: Dict[Tuple[str, str], float] = {}
        for (src, dst), mbps in assignment.pairwise_throughput(graph).items():
            if src == dst or mbps <= 0:
                continue
            key = _pair(src, dst)
            demand[key] = demand.get(key, 0.0) + mbps
        return demand

    def _drop_pending(self, txn: ReservationTransaction) -> None:
        for device_id, load in txn.device_holds.items():
            remaining = self._pending_device.get(device_id, ZERO) - load
            if remaining.is_zero():
                self._pending_device.pop(device_id, None)
            else:
                self._pending_device[device_id] = remaining
        for pair, demand in txn.link_holds.items():
            remaining = self._pending_link.get(pair, 0.0) - demand
            if remaining <= 1e-12:
                self._pending_link.pop(pair, None)
            else:
                self._pending_link[pair] = remaining

    def _finish(
        self, txn: ReservationTransaction, state: TransactionState
    ) -> None:
        """Move a transaction to a final state and forget it."""
        txn.state = state
        if self._transactions.get(txn.txn_id) is txn:
            del self._transactions[txn.txn_id]
        self._version += 1
        self._record_event(txn, state.value)

    def _require(
        self, txn: ReservationTransaction, state: TransactionState
    ) -> None:
        # A finished transaction is forgotten but still reports its state.
        if (
            txn.state not in _FINISHED
            and self._transactions.get(txn.txn_id) is not txn
        ):
            raise LedgerConflictError(
                f"transaction {txn.txn_id} is not known to this ledger"
            )
        if txn.state is not state:
            raise LedgerConflictError(
                f"transaction {txn.txn_id} is {txn.state.value}, "
                f"expected {state.value}"
            )
