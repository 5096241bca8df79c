"""Concurrency stress tests: the ledger's no-over-booking invariant.

These tests run real threads against one domain, the configuration the
seed code could not survive: interleaved ``start()`` calls both passing
the fit check against the same availability snapshot and double-booking a
device. With the ledger in front, every interleaving must keep committed
allocations within capacity — checked both by a sampler thread auditing
*during* the run and by a final audit.
"""

import threading

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.server.drivers import ThreadPoolDriver
from repro.server.ledger import LedgerConflictError, ReservationLedger
from repro.server.service import (
    DomainConfigurationService,
    RequestStatus,
    ServerRequest,
)

from tests.server.conftest import (
    audio_ladder,
    build_pair_domain,
    split_assignment,
    stream_graph,
)

WORKERS = 8


class TestLedgerRaces:
    def test_exactly_one_of_two_racing_prepares_wins(self):
        server = build_pair_domain()
        ledger = ReservationLedger(server)
        barrier = threading.Barrier(2)
        results = []

        def contender():
            txn = ledger.begin()
            barrier.wait()
            try:
                # 60% of memory each: only one can fit.
                ledger.prepare(txn, stream_graph(memory=60.0), split_assignment())
                ledger.commit(txn)
                results.append("won")
            except LedgerConflictError:
                results.append("lost")

        threads = [threading.Thread(target=contender) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(results) == ["lost", "won"]
        assert ledger.audit() == []

    def test_many_threads_never_over_book(self):
        server = build_pair_domain(memory=100.0)
        ledger = ReservationLedger(server)
        barrier = threading.Barrier(WORKERS)
        outcomes = []
        lock = threading.Lock()

        def contender(index):
            txn = ledger.begin(owner=f"t{index}")
            barrier.wait()
            try:
                # 30MB per device per txn: at most 3 of 8 can commit.
                ledger.prepare(txn, stream_graph(memory=30.0), split_assignment())
                ledger.commit(txn)
                with lock:
                    outcomes.append(txn)
            except LedgerConflictError:
                pass

        threads = [
            threading.Thread(target=contender, args=(i,)) for i in range(WORKERS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 3
        assert ledger.audit() == []
        d1 = server.domain.device("d1")
        assert d1.allocated.fits_within(d1.capacity)


class TestServiceStress:
    def test_thread_pool_preserves_invariants_under_contention(self):
        testbed = build_audio_testbed()
        service = DomainConfigurationService(
            testbed.configurator,
            ladder=audio_ladder(),
            queue_capacity=64,
            skip_downloads=True,
        )
        driver = ThreadPoolDriver(service, workers=WORKERS)

        audit_problems = []
        stop_sampling = threading.Event()

        def sampler():
            while not stop_sampling.is_set():
                problems = service.ledger.audit()
                if problems:
                    audit_problems.extend(problems)
                    return

        sampler_thread = threading.Thread(target=sampler, daemon=True)
        sampler_thread.start()
        driver.start()
        try:
            total = 24
            clients = ("desktop1", "desktop2", "desktop3")
            shed = []
            for index in range(total):
                outcome = service.submit(
                    ServerRequest(
                        request_id=f"r{index}",
                        composition=audio_request(
                            testbed, clients[index % len(clients)]
                        ),
                    )
                )
                if outcome.status is RequestStatus.SHED:
                    shed.append(outcome)
            assert driver.wait_idle(timeout=60.0)
        finally:
            driver.stop()
            stop_sampling.set()
            sampler_thread.join(timeout=5.0)

        # The sampler never saw a violated invariant mid-run.
        assert audit_problems == []
        assert service.ledger.audit() == []

        metrics = service.metrics
        assert metrics.count("submitted") == total
        # Every request has exactly one final disposition.
        assert (
            metrics.count("admitted")
            + metrics.count("failed")
            + metrics.shed_total
            == total
        )
        outcomes = shed + driver.outcomes
        assert sorted(o.request_id for o in outcomes) == sorted(
            f"r{index}" for index in range(total)
        )

        # Every admitted session is genuinely deployed, and the devices
        # they hold stay within capacity.
        admitted = [o for o in outcomes if o.admitted]
        assert admitted, "stress run admitted nothing"
        for outcome in admitted:
            assert outcome.session.running
            assert outcome.session.deployment is not None
            assert outcome.session.deployment.ledger_txn is not None
        for device in testbed.devices.values():
            assert device.allocated.fits_within(device.capacity)

        # Releasing everything returns the domain to zero.
        for outcome in admitted:
            service.stop_session(outcome)
        for device in testbed.devices.values():
            assert device.allocated.is_zero()
        assert service.ledger.audit() == []

    def test_stress_with_churn(self):
        """Interleaved admissions and releases keep the ledger consistent."""
        testbed = build_audio_testbed()
        service = DomainConfigurationService(
            testbed.configurator,
            ladder=audio_ladder(),
            queue_capacity=64,
            skip_downloads=True,
        )
        driver = ThreadPoolDriver(service, workers=WORKERS)
        stop_churn = threading.Event()

        def churner():
            while not stop_churn.is_set():
                for outcome in list(driver.outcomes):
                    service.stop_session(outcome)

        churn_thread = threading.Thread(target=churner, daemon=True)
        driver.start()
        churn_thread.start()
        try:
            clients = ("desktop1", "desktop2", "desktop3")
            shed = []
            for index in range(30):
                outcome = service.submit(
                    ServerRequest(
                        request_id=f"c{index}",
                        composition=audio_request(
                            testbed, clients[index % len(clients)]
                        ),
                    )
                )
                if outcome.status is RequestStatus.SHED:
                    shed.append(outcome)
            assert driver.wait_idle(timeout=60.0)
        finally:
            driver.stop()
            stop_churn.set()
            churn_thread.join(timeout=5.0)

        assert service.ledger.audit() == []
        outcomes = shed + driver.outcomes
        assert len({o.request_id for o in outcomes}) == len(outcomes) == 30
        # How many land depends on the interleaving (workers can outrun
        # the churner); the floor is the domain's concurrent capacity.
        admitted = [o for o in outcomes if o.admitted]
        assert len(admitted) >= 5
