"""The two drivers over the drain-target protocol.

One sim driver and one thread driver serve a single service, a cluster
or a federation tier; each service is drained in chunks of its own batch
policy. The thread driver's idle check must never miss a request a
worker has popped but not yet finished.
"""

import threading

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.server.batching import BatchingDomainService, BatchPolicy
from repro.server.cluster import DomainCluster
from repro.server.drivers import SimulatedServerDriver, ThreadPoolDriver
from repro.server.service import (
    UNBATCHED,
    DomainConfigurationService,
    RequestStatus,
    ServerRequest,
)
from repro.sim.kernel import Simulator

from tests.server.conftest import audio_ladder


def request(testbed, rid, client="desktop1"):
    return ServerRequest(
        request_id=rid, composition=audio_request(testbed, client)
    )


def plain_service(testbed, **kwargs):
    return DomainConfigurationService(
        testbed.configurator,
        ladder=audio_ladder(),
        skip_downloads=True,
        **kwargs,
    )


def lingering_service(testbed, **kwargs):
    return BatchingDomainService(
        testbed.configurator,
        ladder=audio_ladder(),
        skip_downloads=True,
        batch=BatchPolicy(max_batch_size=4, max_linger_s=0.05),
        **kwargs,
    )


class TestDrainTargets:
    def test_plain_service_drains_itself_one_at_a_time(self):
        testbed = build_audio_testbed()
        service = plain_service(testbed)
        assert service.batch == UNBATCHED
        assert service.drain_order() == [service]
        outcome, queued_on = service.place(request(testbed, "r1"))
        assert outcome.status is RequestStatus.QUEUED
        assert queued_on is service

    def test_shed_reports_no_service(self):
        testbed = build_audio_testbed()
        service = plain_service(testbed, queue_capacity=1)
        service.place(request(testbed, "r1"))
        outcome, queued_on = service.place(request(testbed, "r2"))
        assert outcome.status is RequestStatus.SHED
        assert queued_on is None

    def test_cluster_reports_the_queueing_shard(self):
        testbeds = [build_audio_testbed() for _ in range(2)]
        cluster = DomainCluster.build(
            [testbed.configurator for testbed in testbeds],
            ladder=audio_ladder(),
            skip_downloads=True,
        )
        assert cluster.drain_order() == cluster.shards
        assert all(shard.batch == UNBATCHED for shard in cluster.shards)
        outcome, queued_on = cluster.place(request(testbeds[0], "r1"))
        assert outcome.status is RequestStatus.QUEUED
        assert [shard.queue.depth for shard in cluster.shards].count(1) == 1
        assert queued_on in cluster.shards and queued_on.queue.depth == 1

    def test_batched_build_only_chooses_the_policy(self):
        testbeds = [build_audio_testbed() for _ in range(2)]
        policy = BatchPolicy(max_batch_size=3, max_linger_s=0.0)
        cluster = DomainCluster.build(
            [testbed.configurator for testbed in testbeds],
            batched=True,
            batch=policy,
        )
        assert all(shard.batch is policy for shard in cluster.shards)
        assert all(
            type(shard) is BatchingDomainService for shard in cluster.shards
        )


class TestSimDriverChunks:
    def test_full_chunk_flushes_at_once_and_under_full_lingers(self):
        testbed = build_audio_testbed()
        simulator = Simulator()
        service = BatchingDomainService(
            testbed.configurator,
            ladder=audio_ladder(),
            skip_downloads=True,
            clock=SimulatedServerDriver.clock(simulator),
            batch=BatchPolicy(max_batch_size=2, max_linger_s=0.5),
        )
        driver = SimulatedServerDriver(service, simulator, workers=1)
        for index, at in enumerate((1.0, 1.0, 3.0)):
            simulator.schedule_at(
                at,
                lambda i=index: driver.arrive(request(testbed, f"r{i}")),
            )
        driver.run()
        sizes = service.metrics.registry.histogram(
            service.metrics.namespace + ".batch_size"
        )
        assert sizes.samples() == [2.0, 1.0]
        # Served in order: r0 and r1 at once, r2 after its linger.
        waits = list(service.metrics.stage("queue_wait_ms").iter_samples())
        assert waits == pytest.approx([0.0, 0.0, 500.0])


class TestThreadDriverIdle:
    @pytest.mark.parametrize(
        "make_service", [plain_service, lingering_service]
    )
    def test_popped_request_keeps_the_pool_busy(self, make_service):
        """A worker that has popped a request but not yet served it must
        count as busy: ``wait_idle`` may not report an idle pool while the
        request has neither an outcome nor a place in the queue."""
        testbed = build_audio_testbed()
        service = make_service(testbed)
        popped = threading.Event()
        release = threading.Event()
        real_get = service.queue.get

        def get_then_stall(*args, **kwargs):
            item = real_get(*args, **kwargs)
            if item is not None:
                popped.set()
                release.wait(timeout=10.0)
            return item

        service.queue.get = get_then_stall
        driver = ThreadPoolDriver(service, workers=1)
        driver.start()
        try:
            service.submit(request(testbed, "r1"))
            assert popped.wait(timeout=10.0)
            assert service.queue.depth == 0
            assert not driver.wait_idle(timeout=0.2)
            release.set()
            assert driver.wait_idle(timeout=10.0)
        finally:
            release.set()
            driver.stop()
        assert [o.request_id for o in driver.outcomes] == ["r1"]
        assert service.ledger.audit() == []


class TestSharedClassGraphs:
    @pytest.mark.parametrize(
        "offset", [0, 1], ids=["top_rung", "degraded_rung"]
    )
    @pytest.mark.parametrize("driver", ["drain", "thread"])
    def test_one_class_at_one_rung_shares_one_frozen_graph(self, driver, offset):
        """Admissions of one request class at one rung deploy the same
        frozen graph: the composer's at the top rung, the rung's
        demand-scaled graph (memoized on it) below."""
        testbed = build_audio_testbed()
        service = plain_service(testbed)
        service.admission.set_entry_offset(offset)
        # A warm domain: the class is in the composer's cache. (Two cold
        # composes racing on worker threads may each build the graph.)
        service.submit(request(testbed, "r0"))
        served = service.drain()
        if driver == "thread":
            pool = ThreadPoolDriver(service, workers=2)
            pool.start()
            try:
                for rid in ("r1", "r2"):
                    service.submit(request(testbed, rid))
                assert pool.wait_idle(timeout=10.0)
            finally:
                pool.stop()
            served += pool.outcomes
        else:
            for rid in ("r1", "r2"):
                service.submit(request(testbed, rid))
            served += service.drain()
        outcomes = sorted(served, key=lambda o: o.request_id)
        assert [o.request_id for o in outcomes] == ["r0", "r1", "r2"]
        assert all(o.admitted for o in outcomes)
        level = audio_ladder().levels[offset]
        assert {o.level for o in outcomes} == {f"admit@{level.label}"}
        first, *rest = (o.session.graph for o in outcomes)
        assert all(graph is first for graph in rest) and first.frozen
        composed = testbed.configurator.composer.compose(
            outcomes[0].session.request
        ).graph
        assert (first is composed) == (level.demand_scale == 1.0)
        assert service.ledger.audit() == []
