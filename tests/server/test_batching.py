"""Tests for chunked serving through the grouped ladder walk.

Covers the claims the batching layer makes: a chunk of many decides each
request exactly like chunks of one would; a chunk's admissions can never
over-book (walk mates see each other's holds); batched sim replay stays
byte-deterministic per seed; batched single-domain scenarios really
serve through chunks; and real-thread batched serving preserves every
ledger invariant under contention.
"""

import threading

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.resources.vectors import ResourceVector
from repro.server.batching import BatchingDomainService, BatchPolicy
from repro.server.drivers import ThreadPoolDriver
from repro.server.service import (
    DomainConfigurationService,
    RequestStatus,
    ServerRequest,
)

from tests.conftest import audio_lab_point
from tests.server.conftest import audio_ladder


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def make_batching_service(testbed, **kwargs):
    kwargs.setdefault("ladder", audio_ladder())
    kwargs.setdefault("skip_downloads", True)
    kwargs.setdefault("batch", BatchPolicy(max_batch_size=8, max_linger_s=0.0))
    return BatchingDomainService(testbed.configurator, **kwargs)


def request(testbed, rid, client="desktop1", **kwargs):
    return ServerRequest(
        request_id=rid,
        composition=audio_request(testbed, client),
        **kwargs,
    )


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_linger_s=-0.1)


class TestBatchedAdmission:
    def test_batch_admits_like_the_single_request_walk(self):
        """Same stream, same dispositions: one chunk of six vs six of one."""
        batched_testbed = build_audio_testbed()
        unbatched_testbed = build_audio_testbed()
        batched = make_batching_service(batched_testbed)
        unbatched = DomainConfigurationService(
            unbatched_testbed.configurator,
            ladder=audio_ladder(),
            skip_downloads=True,
        )
        for index in range(6):
            batched.submit(request(batched_testbed, f"r{index}"))
            unbatched.submit(request(unbatched_testbed, f"r{index}"))
        batch_outcomes = batched.process_batch()
        single_outcomes = unbatched.drain()
        assert [
            (o.request_id, o.status, o.level) for o in batch_outcomes
        ] == [(o.request_id, o.status, o.level) for o in single_outcomes]
        assert batched.ledger.audit() == []

    def test_one_batch_never_over_books(self):
        """8 requests, capacity for 4: batch mates see each other's holds."""
        testbed = build_audio_testbed()
        service = make_batching_service(testbed, ladder=None)
        for index in range(8):
            service.submit(request(testbed, f"r{index}"))
        outcomes = service.process_batch()
        assert len(outcomes) == 8
        admitted = [o for o in outcomes if o.admitted]
        failed = [o for o in outcomes if o.status is RequestStatus.FAILED]
        assert len(admitted) == 4
        assert len(failed) == 4
        for device in testbed.devices.values():
            assert device.allocated.fits_within(device.capacity)
        assert service.ledger.audit() == []

    def test_batch_losers_descend_the_ladder(self):
        """Capacity for one full admission: the batch mate degrades."""
        testbed = build_audio_testbed()
        # Leave 111MB free: one full admission (64MB) fits, after which
        # only the reduced level (44.8MB) fits the batch mate.
        for name in ("desktop1", "desktop2", "desktop3"):
            testbed.devices[name].allocate(ResourceVector(memory=145.0))
        service = make_batching_service(testbed)
        service.submit(request(testbed, "r1"))
        service.submit(request(testbed, "r2"))
        outcomes = service.process_batch()
        by_id = {o.request_id: o for o in outcomes}
        levels = sorted(o.level for o in outcomes if o.admitted)
        assert by_id["r1"].admitted and by_id["r2"].admitted
        assert "admit@full" in levels
        assert any(level != "admit@full" for level in levels)
        assert service.metrics.count("admitted_degraded") >= 1
        assert service.ledger.audit() == []

    def test_expired_requests_shed_per_item(self):
        clock = FakeClock(0.0)
        testbed = build_audio_testbed()
        service = make_batching_service(testbed, clock=clock)
        service.submit(request(testbed, "stale", deadline_s=1.0))
        service.submit(request(testbed, "fresh"))
        clock.now = 5.0
        outcomes = service.process_batch()
        by_id = {o.request_id: o for o in outcomes}
        assert by_id["stale"].status is RequestStatus.SHED
        assert by_id["stale"].shed_reason == "deadline"
        assert by_id["fresh"].admitted
        assert service.metrics.count("shed_deadline") == 1

    def test_batch_size_histogram_records_each_flush(self):
        testbed = build_audio_testbed()
        service = make_batching_service(
            testbed, batch=BatchPolicy(max_batch_size=3, max_linger_s=0.0)
        )
        for index in range(5):
            service.submit(request(testbed, f"r{index}"))
        service.process_batch()
        service.process_batch()
        histogram = service.metrics.registry.histogram(
            service.metrics.namespace + ".batch_size"
        )
        assert histogram.samples() == [3.0, 2.0]

    def test_empty_queue_yields_empty_batch(self):
        service = make_batching_service(build_audio_testbed())
        assert service.process_batch() == []

    def test_process_next_still_serves_singly(self):
        """Non-batch-aware tooling keeps working against the same service."""
        testbed = build_audio_testbed()
        service = make_batching_service(testbed)
        service.submit(request(testbed, "r1"))
        outcome = service.process_next()
        assert outcome is not None and outcome.admitted
        assert service.ledger.audit() == []


class TestBatchedDeterminism:
    def test_batched_sim_replay_is_byte_identical(self):
        first = audio_lab_point(
            2, 2.0, seed=11, horizon_s=60.0, batched=True, trace=True
        )
        second = audio_lab_point(
            2, 2.0, seed=11, horizon_s=60.0, batched=True, trace=True
        )
        assert first.metrics_json == second.metrics_json
        assert first.trace_ndjson == second.trace_ndjson
        assert first.trace_ndjson.count("server.batch") > 0

    def test_batched_sim_admits_under_light_load(self):
        point = audio_lab_point(1, 1.0, seed=3, horizon_s=60.0, batched=True)
        assert point.admitted > 0
        assert point.submitted == point.admitted + point.shed + point.failed


class TestBatchedThreadStress:
    def test_batched_pool_preserves_invariants_under_contention(self):
        """Mirror of the unbatched thread stress test, grouped commits."""
        testbed = build_audio_testbed()
        service = make_batching_service(
            testbed,
            queue_capacity=64,
            batch=BatchPolicy(max_batch_size=4, max_linger_s=0.002),
        )
        driver = ThreadPoolDriver(service, workers=8)

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
            for index in range(total):
                service.submit(
                    request(
                        testbed, f"r{index}", client=clients[index % len(clients)]
                    )
                )
            assert driver.wait_idle(timeout=60.0)
        finally:
            driver.stop()
            stop_sampling.set()
            sampler_thread.join(timeout=5.0)

        assert audit_problems == []
        assert service.ledger.audit() == []
        metrics = service.metrics
        assert metrics.count("submitted") == total
        assert (
            metrics.count("admitted")
            + metrics.count("failed")
            + metrics.shed_total
            == total
        )
        assert len(service.outcomes()) == total
        admitted = [o for o in service.outcomes() if o.admitted]
        assert admitted, "batched stress run admitted nothing"
        for outcome in admitted:
            assert outcome.session.running
            assert outcome.session.deployment is not None
            assert outcome.session.deployment.ledger_txn is not None
        for device in testbed.devices.values():
            assert device.allocated.fits_within(device.capacity)
        for outcome in admitted:
            service.stop_session(outcome)
        for device in testbed.devices.values():
            assert device.allocated.is_zero()
        assert service.ledger.audit() == []


class TestLoadScoreProbes:
    """load_score() reads the queue live and the ledger's utilization memo."""

    @staticmethod
    def count_domain_walks(service):
        server = service.ledger.server
        walks = []
        real_walk = server.available_devices

        def counting_walk():
            walks.append(1)
            return real_walk()

        server.available_devices = counting_walk
        return walks

    def test_probes_between_state_changes_hit_ledger_memo(self):
        testbed = build_audio_testbed()
        service = make_batching_service(testbed)
        walks = self.count_domain_walks(service)
        first = service.load_score()
        for _ in range(5):
            assert service.load_score() == first
        assert len(walks) == 1

    def test_queue_or_ledger_changes_move_the_score(self):
        testbed = build_audio_testbed()
        service = make_batching_service(testbed)
        walks = self.count_domain_walks(service)
        idle = service.load_score()
        assert len(walks) == 1
        service.submit(request(testbed, "r1"))
        # The queue term is read live; the ledger did not move, so the
        # utilization term is still a memo hit.
        score_with_backlog = service.load_score()
        assert score_with_backlog == idle + 1 / service.queue.capacity
        assert len(walks) == 1
        service.process_batch()  # ledger version moves on admission
        before_probe = len(walks)
        admitted = service.load_score()
        assert len(walks) == before_probe + 1
        assert admitted == service.ledger.utilization() > idle
