"""Unit tests for the transactional reservation ledger."""

import sys
import threading

import pytest

from repro.apps.audio_on_demand import build_audio_testbed
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultKind, FaultSpec
from repro.graph.cuts import Assignment
from repro.resources.vectors import ResourceVector
from repro.runtime.clock import SimScheduler
from repro.server.ledger import (
    LedgerConflictError,
    ReservationLedger,
    TransactionState,
)
from repro.sim.kernel import Simulator

from tests.server.conftest import build_pair_domain, split_assignment, stream_graph


class TestTwoPhaseLifecycle:
    def test_prepare_commit_allocates(self, pair_server, ledger):
        txn = ledger.begin(owner="s1")
        ledger.prepare(txn, stream_graph(), split_assignment())
        assert txn.state is TransactionState.PREPARED
        allocations, reservations = ledger.commit(txn)
        assert txn.state is TransactionState.COMMITTED
        assert {a.device_id for a in allocations} == {"d1", "d2"}
        assert len(reservations) == 1
        d1 = pair_server.domain.device("d1")
        assert d1.allocated == ResourceVector(memory=40.0, cpu=0.5)
        assert ledger.audit() == []

    def test_release_frees_everything(self, pair_server, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        ledger.commit(txn)
        ledger.release(txn)
        assert txn.state is TransactionState.RELEASED
        for name in ("d1", "d2"):
            assert pair_server.domain.device(name).allocated.is_zero()
        assert pair_server.network.available_bandwidth("d1", "d2") == pytest.approx(
            100.0
        )

    def test_abort_before_commit_leaves_no_trace(self, pair_server, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        ledger.abort(txn)
        assert txn.state is TransactionState.ABORTED
        assert pair_server.domain.device("d1").allocated.is_zero()
        # A full-capacity follow-up must now fit.
        txn2 = ledger.begin()
        ledger.prepare(txn2, stream_graph(memory=100.0, cpu=2.0), split_assignment())

    def test_abort_is_idempotent(self, ledger):
        txn = ledger.begin()
        ledger.abort(txn)
        ledger.abort(txn)
        assert txn.state is TransactionState.ABORTED

    def test_release_of_uncommitted_aborts(self, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        ledger.release(txn)
        assert txn.state is TransactionState.ABORTED

    def test_wrong_state_rejected(self, ledger):
        txn = ledger.begin()
        with pytest.raises(LedgerConflictError):
            ledger.commit(txn)  # never prepared

    def test_foreign_transaction_rejected(self, pair_server, ledger):
        other = ReservationLedger(pair_server).begin()
        with pytest.raises(LedgerConflictError):
            ledger.prepare(other, stream_graph(), split_assignment())


class TestConflictDetection:
    def test_pending_hold_blocks_competing_prepare(self, ledger):
        first = ledger.begin()
        ledger.prepare(first, stream_graph(memory=60.0), split_assignment())
        second = ledger.begin()
        with pytest.raises(LedgerConflictError) as info:
            ledger.prepare(second, stream_graph(memory=60.0), split_assignment())
        assert second.state is TransactionState.PENDING
        assert any("d1" in c for c in info.value.conflicts)

    def test_committed_capacity_blocks_prepare(self, ledger):
        first = ledger.begin()
        ledger.prepare(first, stream_graph(memory=60.0), split_assignment())
        ledger.commit(first)
        second = ledger.begin()
        with pytest.raises(LedgerConflictError):
            ledger.prepare(second, stream_graph(memory=60.0), split_assignment())

    def test_link_bandwidth_conflict(self, ledger):
        first = ledger.begin()
        ledger.prepare(
            first, stream_graph(memory=10.0, throughput=80.0), split_assignment()
        )
        second = ledger.begin()
        with pytest.raises(LedgerConflictError) as info:
            ledger.prepare(
                second, stream_graph(memory=10.0, throughput=80.0), split_assignment()
            )
        assert any("Mbps" in c for c in info.value.conflicts)

    def test_offline_device_conflicts_at_prepare(self, pair_server, ledger):
        pair_server.domain.device("d2").go_offline()
        txn = ledger.begin()
        with pytest.raises(LedgerConflictError) as info:
            ledger.prepare(txn, stream_graph(), split_assignment())
        assert any("offline" in c for c in info.value.conflicts)

    def test_device_offline_between_prepare_and_commit(self, pair_server, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        pair_server.domain.device("d2").go_offline()
        with pytest.raises(LedgerConflictError):
            ledger.commit(txn)
        assert txn.state is TransactionState.ABORTED
        # Partial acquisitions must have been rolled back.
        assert pair_server.domain.device("d1").allocated.is_zero()
        assert ledger.audit() == []


class TestSnapshots:
    def test_environment_subtracts_pending_holds(self, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(memory=60.0), split_assignment())
        environment, _devices = ledger.environment()
        availability = {
            c.device_id: c.available for c in environment.devices
        }
        assert availability["d1"]["memory"] == pytest.approx(40.0)
        assert availability["d2"]["memory"] == pytest.approx(40.0)

    def test_environment_reads_availability_where_nothing_is_pending(
        self, ledger, pair_server
    ):
        both_on_d1 = Assignment({"src": "d1", "sink": "d1"})
        ledger.prepare(ledger.begin(), stream_graph(), both_on_d1)
        environment, devices = ledger.environment()
        held, free = environment.device("d1"), environment.device("d2")
        assert held.available["memory"] == pytest.approx(20.0)
        assert free.available is devices["d2"].available()

    def test_environment_subtracts_pending_bandwidth(self, ledger):
        txn = ledger.begin()
        ledger.prepare(
            txn, stream_graph(memory=10.0, throughput=70.0), split_assignment()
        )
        environment, _devices = ledger.environment()
        assert environment.bandwidth("d1", "d2") == pytest.approx(30.0)

    def test_version_moves_on_every_transition(self, ledger):
        v0 = ledger.version
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(), split_assignment())
        v1 = ledger.version
        assert v1 > v0
        ledger.commit(txn)
        v2 = ledger.version
        assert v2 > v1
        ledger.release(txn)
        assert ledger.version > v2

    def test_utilization_tracks_commitments(self, ledger):
        assert ledger.utilization() == pytest.approx(0.0)
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(memory=80.0), split_assignment())
        assert ledger.utilization() == pytest.approx(0.8)
        ledger.commit(txn)
        assert ledger.utilization() == pytest.approx(0.8)
        ledger.release(txn)
        assert ledger.utilization() == pytest.approx(0.0)

    def test_transactions_filterable_by_state(self, ledger):
        a = ledger.begin()
        ledger.prepare(a, stream_graph(memory=10.0), split_assignment())
        ledger.commit(a)
        b = ledger.begin()
        ledger.abort(b)
        assert ledger.transactions(TransactionState.COMMITTED) == [a]
        assert ledger.transactions(TransactionState.ABORTED) == [b]
        assert len(ledger.transactions()) == 2


class TestUtilizationMemo:
    """utilization() is memoized on (ledger version, domain snapshot)."""

    def test_moves_after_prepare_commit_release(self, ledger):
        assert ledger.utilization() == 0.0
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(memory=80.0), split_assignment())
        assert ledger.utilization() == pytest.approx(0.8)
        ledger.commit(txn)
        assert ledger.utilization() == pytest.approx(0.8)
        ledger.release(txn)
        assert ledger.utilization() == 0.0

    def test_moves_after_abort(self, ledger):
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(memory=60.0), split_assignment())
        assert ledger.utilization() == pytest.approx(0.6)
        ledger.abort(txn)
        assert ledger.utilization() == 0.0

    def test_moves_after_device_crash(self, pair_server, ledger):
        busy = ledger.begin()
        ledger.prepare(
            busy, stream_graph(memory=45.0), Assignment({"src": "d1", "sink": "d1"})
        )
        ledger.commit(busy)
        assert ledger.utilization() == pytest.approx(0.9)
        pair_server.domain.device("d1").go_offline()
        assert ledger.utilization() == 0.0

    def test_moves_after_fault_injected_pressure(self):
        scheduler = SimScheduler(Simulator())
        testbed = build_audio_testbed(clock=scheduler.clock())
        ledger = ReservationLedger(testbed.server)
        injector = FaultInjector(testbed.server, scheduler)
        idle = ledger.utilization()
        version = ledger.version
        assert injector.inject(
            FaultSpec(FaultKind.RESOURCE_PRESSURE, 0.0, "desktop2", magnitude=0.9)
        )
        # Pressure allocates on the device directly: only its state
        # version moves, never the ledger's.
        assert ledger.version == version
        assert ledger.utilization() > idle
        assert ledger.utilization() == pytest.approx(0.9)

    def test_unchanged_state_skips_the_domain_walk(self, pair_server, ledger):
        walks = []
        real_walk = pair_server.available_devices

        def counting_walk():
            walks.append(1)
            return real_walk()

        pair_server.available_devices = counting_walk
        first = ledger.utilization()
        for _ in range(5):
            assert ledger.utilization() == first
        assert len(walks) == 1
        txn = ledger.begin()
        ledger.prepare(txn, stream_graph(memory=10.0), split_assignment())
        ledger.utilization()
        assert len(walks) == 2


class TestMemosUnderThreads:
    def test_readers_racing_writers_never_keep_a_stale_memo(self):
        # Writers serialize through the ledger; readers hit the two memos
        # (Device.available, ledger.utilization) concurrently. A memo
        # stored under a newer token than the state it was computed from
        # would survive the run and disagree with a fresh computation.
        server = build_pair_domain(memory=100.0, cpu=2.0)
        ledger = ReservationLedger(server)
        devices = [server.domain.device(name) for name in ("d1", "d2")]
        stop = threading.Event()
        errors = []

        def writer(index):
            try:
                for _ in range(40):
                    txn = ledger.begin(owner=f"w{index}")
                    try:
                        ledger.prepare(
                            txn, stream_graph(memory=20.0, cpu=0.3), split_assignment()
                        )
                        ledger.commit(txn)
                    except LedgerConflictError:
                        continue
                    ledger.release(txn)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        def reader():
            try:
                while not stop.is_set():
                    assert 0.0 <= ledger.utilization() <= 1.0
                    for device in devices:
                        assert device.available().fits_within(device.capacity)
            except Exception as exc:
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writers = [
                threading.Thread(target=writer, args=(i,)) for i in range(4)
            ]
            readers = [threading.Thread(target=reader) for _ in range(4)]
            for thread in writers + readers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            stop.set()
            for thread in readers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in writers + readers)
        assert errors == []
        for device in devices:
            assert device.allocated.is_zero()
            assert device.available() == device.capacity - device.allocated
        assert ledger.utilization() == ReservationLedger(server).utilization() == 0.0
        assert ledger.audit() == []


class TestAudit:
    """The no-over-booking audit reports each kind of breach it checks."""

    def _commit(self, ledger, **graph_kwargs):
        txn = ledger.begin(owner="s1")
        ledger.prepare(txn, stream_graph(**graph_kwargs), split_assignment())
        ledger.commit(txn)
        return txn

    def test_shrunken_device_capacity_is_reported(self, pair_server, ledger):
        self._commit(ledger)
        pair_server.domain.device("d1").capacity = ResourceVector(
            memory=30.0, cpu=2.0
        )
        problems = ledger.audit()
        assert any(p.startswith("device 'd1' over-booked") for p in problems)
        assert any(
            p.startswith("ledger over-committed device 'd1'") for p in problems
        )
        assert not any("'d2'" in p for p in problems)

    def test_degraded_link_below_committed_bandwidth_is_reported(
        self, pair_server, ledger
    ):
        self._commit(ledger, throughput=10.0)
        pair_server.network.set_link_health("d1", "d2", 0.05)  # 100 -> 5 Mbps
        (problem,) = ledger.audit()
        assert problem.startswith("link d1<->d2 over-booked")
        pair_server.network.clear_link_health("d1", "d2")
        assert ledger.audit() == []

    def test_departed_device_is_skipped(self, pair_server, ledger):
        self._commit(ledger)
        pair_server.leave("d2")
        assert ledger.audit() == []

    def test_release_after_a_device_left_frees_the_rest(self, pair_server, ledger):
        txn = self._commit(ledger)
        pair_server.leave("d2")
        ledger.release(txn)
        assert txn.state is TransactionState.RELEASED
        assert pair_server.domain.device("d1").allocated.is_zero()
        assert ledger.audit() == []

    def test_prepare_on_a_departed_device_conflicts(self, pair_server, ledger):
        pair_server.leave("d2")
        txn = ledger.begin()
        with pytest.raises(LedgerConflictError) as info:
            ledger.prepare(txn, stream_graph(), split_assignment())
        assert "device 'd2' left the domain" in info.value.conflicts


class TestColocation:
    def test_colocated_edge_needs_no_bandwidth(self, pair_server, ledger):
        from repro.graph.cuts import Assignment

        txn = ledger.begin()
        ledger.prepare(
            txn,
            stream_graph(memory=20.0, throughput=500.0),
            Assignment({"src": "d1", "sink": "d1"}),
        )
        _allocations, reservations = ledger.commit(txn)
        assert reservations == []
        assert pair_server.domain.device("d1").allocated == ResourceVector(
            memory=40.0, cpu=1.0
        )


class TestGroupedRounds:
    def test_prepare_many_later_items_see_earlier_holds(self, pair_server, ledger):
        """Two 60MB plans against 100MB devices: exactly one holds."""
        txn_a, txn_b = ledger.begin(owner="a"), ledger.begin(owner="b")
        results = ledger.prepare_many(
            [
                (txn_a, stream_graph(memory=60.0), split_assignment()),
                (txn_b, stream_graph(memory=60.0), split_assignment()),
            ]
        )
        assert results[0] is None
        assert isinstance(results[1], LedgerConflictError)
        assert txn_a.state is TransactionState.PREPARED
        # The loser is left un-prepared for the caller to abort.
        assert txn_b.state is TransactionState.PENDING
        ledger.abort(txn_b)
        ledger.commit(txn_a)
        assert ledger.audit() == []

    def test_commit_many_returns_token_pairs(self, pair_server, ledger):
        txns = [ledger.begin(owner=f"t{i}") for i in range(2)]
        prepare_results = ledger.prepare_many(
            [
                (txn, stream_graph(memory=30.0), split_assignment())
                for txn in txns
            ]
        )
        assert prepare_results == [None, None]
        commit_results = ledger.commit_many(txns)
        for txn, result in zip(txns, commit_results):
            assert txn.state is TransactionState.COMMITTED
            allocations, reservations = result
            assert {a.device_id for a in allocations} == {"d1", "d2"}
            assert len(reservations) == 1
        d1 = pair_server.domain.device("d1")
        assert d1.allocated == ResourceVector(memory=60.0, cpu=1.0)
        for txn in txns:
            ledger.release(txn)
        assert d1.allocated.is_zero()
        assert ledger.audit() == []

    def test_commit_many_isolates_a_mid_batch_failure(self, pair_server, ledger):
        """An offline device aborts only its own transaction in the group."""
        txns = [ledger.begin(owner=f"t{i}") for i in range(2)]
        ledger.prepare_many(
            [
                (txns[0], stream_graph(memory=20.0), split_assignment()),
                (
                    txns[1],
                    stream_graph(memory=20.0),
                    Assignment({"src": "d2", "sink": "d2"}),
                ),
            ]
        )
        pair_server.domain.device("d2").go_offline()
        results = ledger.commit_many(txns)
        # d1+d2 txn fails on the offline device; both of its partial
        # acquisitions roll back. The d2-only txn also fails.
        assert all(isinstance(r, LedgerConflictError) for r in results)
        assert all(t.state is TransactionState.ABORTED for t in txns)
        assert pair_server.domain.device("d1").allocated.is_zero()
        assert ledger.audit() == []

    def test_grouped_rounds_bump_versions(self, ledger):
        before = ledger.version
        txn = ledger.begin()
        ledger.prepare_many([(txn, stream_graph(), split_assignment())])
        mid = ledger.version
        assert mid > before
        ledger.commit_many([txn])
        assert ledger.version > mid
