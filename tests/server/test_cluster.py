"""Unit and stress tests for the sharded multi-domain serving cluster."""

import threading

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.observability.metrics import MetricsRegistry
from repro.server.cluster import (
    ConsistentHashRouter,
    DomainCluster,
    LeastLoadedRouter,
    make_router,
    shard_load,
)
from repro.server.drivers import ThreadPoolDriver
from repro.server.metrics import ServerMetrics
from repro.server.service import (
    DomainConfigurationService,
    RequestStatus,
    ServerRequest,
)

from tests.server.conftest import audio_ladder


def make_cluster(shard_count, router=None, queue_capacity=16, **kwargs):
    registry = MetricsRegistry()
    testbeds = [build_audio_testbed() for _ in range(shard_count)]
    shards = [
        DomainConfigurationService(
            testbed.configurator,
            ladder=audio_ladder(),
            queue_capacity=queue_capacity,
            skip_downloads=True,
            metrics=ServerMetrics(
                registry=registry, namespace=f"cluster.shard{index}"
            ),
            **kwargs,
        )
        for index, testbed in enumerate(testbeds)
    ]
    cluster = DomainCluster(shards, router=router, registry=registry)
    return cluster, testbeds


def request(testbed, rid, user_id=None, client="desktop1"):
    return ServerRequest(
        request_id=rid,
        composition=audio_request(testbed, client),
        user_id=user_id,
    )


class TestConsistentHashRouter:
    def test_same_user_always_lands_on_same_shard(self):
        cluster, testbeds = make_cluster(4)
        router = ConsistentHashRouter(4)
        first = router.route(request(testbeds[0], "r1", user_id="alice"), cluster.shards)
        for rid in ("r2", "r3", "r4"):
            again = router.route(
                request(testbeds[0], rid, user_id="alice"), cluster.shards
            )
            assert again == first

    def test_users_spread_across_shards(self):
        cluster, testbeds = make_cluster(4)
        router = ConsistentHashRouter(4)
        homes = {
            router.route(
                request(testbeds[0], f"r{i}", user_id=f"user-{i}"), cluster.shards
            )
            for i in range(64)
        }
        assert len(homes) == 4  # every shard owns some arc of the ring

    def test_routing_is_deterministic_across_instances(self):
        cluster, testbeds = make_cluster(2)
        req = request(testbeds[0], "r1", user_id="bob")
        assert ConsistentHashRouter(2).route(req, cluster.shards) == (
            ConsistentHashRouter(2).route(req, cluster.shards)
        )

    def test_falls_back_to_request_id_without_user(self):
        cluster, testbeds = make_cluster(2)
        router = ConsistentHashRouter(2)
        req = request(testbeds[0], "r1")
        assert router.route(req, cluster.shards) in (0, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ConsistentHashRouter(0)
        with pytest.raises(ValueError):
            ConsistentHashRouter(2, replicas=0)


class TestLeastLoadedRouter:
    def test_prefers_the_less_loaded_probe(self):
        cluster, testbeds = make_cluster(2, router=LeastLoadedRouter())
        # Fill shard 0's queue so its load signal dominates.
        for index in range(8):
            cluster.shards[0].queue.put(f"fill-{index}")
        router = LeastLoadedRouter()
        # Over many users the two probes differ often; whenever they do,
        # shard 1 (empty) must win.
        routed = [
            router.route(
                request(testbeds[0], f"r{i}", user_id=f"user-{i}"), cluster.shards
            )
            for i in range(32)
        ]
        assert routed.count(1) > routed.count(0)
        assert shard_load(cluster.shards[0]) > shard_load(cluster.shards[1])


class TestRouterRegistry:
    def test_make_router(self):
        assert isinstance(make_router("hash", 2), ConsistentHashRouter)
        assert isinstance(make_router("least-loaded", 2), LeastLoadedRouter)
        with pytest.raises(ValueError):
            make_router("random", 2)


class TestOverflow:
    def test_capacity_shed_overflows_to_sibling(self):
        cluster, testbeds = make_cluster(2, queue_capacity=1)
        router = ConsistentHashRouter(2)
        # Find a user homed on shard 0 and fill that shard's queue.
        user = next(
            f"user-{i}"
            for i in range(64)
            if router.route(
                request(testbeds[0], "probe", user_id=f"user-{i}"),
                cluster.shards,
            )
            == 0
        )
        cluster.router = router
        cluster.shards[0].queue.put("blocker")
        placed = cluster.submit(request(testbeds[0], "r1", user_id=user))
        assert placed.home_shard == 0
        assert placed.shard == 1
        assert placed.overflowed
        assert placed.outcome.status is RequestStatus.QUEUED
        registry = cluster.registry
        assert registry.counter("cluster.overflow_attempts").value == 1
        assert registry.counter("cluster.overflow_rescued").value == 1
        assert registry.counter("cluster.overflow_reshed").value == 0

    def test_shed_is_final_when_every_shard_is_full(self):
        cluster, testbeds = make_cluster(2, queue_capacity=1)
        for shard in cluster.shards:
            shard.queue.put("blocker")
        placed = cluster.submit(request(testbeds[0], "r1", user_id="alice"))
        assert placed.outcome.status is RequestStatus.SHED
        assert placed.overflowed
        assert cluster.registry.counter("cluster.overflow_reshed").value == 1
        assert cluster.registry.counter("cluster.shed_at_submit").value == 1

    def test_single_shard_cluster_never_overflows(self):
        cluster, testbeds = make_cluster(1, queue_capacity=1)
        cluster.shards[0].queue.put("blocker")
        placed = cluster.submit(request(testbeds[0], "r1"))
        assert placed.outcome.status is RequestStatus.SHED
        assert not placed.overflowed
        assert cluster.registry.counter("cluster.overflow_attempts").value == 0

    def test_serve_time_failure_does_not_overflow(self):
        cluster, testbeds = make_cluster(2)
        # Saturate every device on both shards: the request queues fine
        # (no capacity shed at the front door) and then FAILS admission at
        # serve time — a disposition that must never trigger overflow.
        for testbed in testbeds:
            for device in testbed.devices.values():
                device.allocate(device.available())
        placed = cluster.submit(request(testbeds[0], "r1", user_id="alice"))
        assert placed.outcome.status is RequestStatus.QUEUED
        outcome = cluster.shards[placed.shard].drain()[0]
        assert outcome.status is RequestStatus.FAILED
        assert cluster.registry.counter("cluster.overflow_attempts").value == 0


class TestClusterBookkeeping:
    def test_placement_and_outcome_follow_the_serving_shard(self):
        cluster, testbeds = make_cluster(2, queue_capacity=1)
        cluster.shards[0].queue.put("blocker")
        router = ConsistentHashRouter(2)
        user = next(
            f"user-{i}"
            for i in range(64)
            if router.route(
                request(testbeds[0], "probe", user_id=f"user-{i}"),
                cluster.shards,
            )
            == 0
        )
        cluster.router = router
        placed = cluster.submit(request(testbeds[0], "r1", user_id=user))
        assert cluster.shard_of("r1") == placed.shard == 1
        served = cluster.shards[1].drain()
        assert served and served[0].request_id == "r1"
        assert cluster.outcome("r1").status is served[0].status
        assert cluster.outcome("never-submitted") is None

    def test_build_wires_shared_registry_namespaces(self):
        testbeds = [build_audio_testbed() for _ in range(2)]
        cluster = DomainCluster.build(
            [t.configurator for t in testbeds],
            ladder=audio_ladder(),
            skip_downloads=True,
        )
        cluster.submit(request(testbeds[0], "r1", user_id="alice"))
        names = cluster.registry.names()
        assert "cluster.submitted" in names
        assert any(name.startswith("cluster.shard0.") for name in names)
        assert any(name.startswith("cluster.shard1.") for name in names)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            DomainCluster([])


class TestClusterMetrics:
    def test_whole_cluster_counters_correct_for_overflow(self):
        cluster, testbeds = make_cluster(2, queue_capacity=1)
        for shard in cluster.shards:
            shard.queue.put("blocker")
        cluster.submit(request(testbeds[0], "r1", user_id="alice"))
        snapshot = cluster.metrics.snapshot()
        whole = snapshot["cluster"]
        # One distinct request: shard counters saw two submits (home +
        # overflow retry) and two sheds, but the cluster saw one of each.
        assert whole["submitted"] == 1
        assert whole["shed_final"] == 1
        assert snapshot["routing"]["overflow_attempts"] == 1
        shard_submitted = sum(
            s["counters"]["submitted"] for s in snapshot["shards"]
        )
        assert shard_submitted == 2

    def test_merged_percentiles_pool_shard_samples(self):
        cluster, _ = make_cluster(2)
        cluster.shards[0].metrics.record("total_ms", 10.0)
        cluster.shards[1].metrics.record("total_ms", 30.0)
        latency = cluster.metrics.snapshot()["cluster"]["latency"]["total_ms"]
        assert latency["count"] == 2
        assert latency["mean"] == pytest.approx(20.0)
        assert latency["max"] == pytest.approx(30.0)

    def test_to_json_is_deterministic(self):
        cluster, testbeds = make_cluster(2)
        cluster.submit(request(testbeds[0], "r1", user_id="alice"))
        assert cluster.metrics.to_json() == cluster.metrics.to_json()

    def test_percentile_merge_neither_copies_nor_mutates_shard_samples(self):
        """The cluster merge must iterate shard samples, not snapshot them.

        Histogram.samples() returns a defensive copy per call; merging a
        large cluster through it would duplicate every shard's latency
        history on every snapshot. Assert the merge path never calls it
        and leaves the underlying sample storage untouched.
        """
        from repro.observability.metrics import Histogram

        cluster, _ = make_cluster(2)
        cluster.shards[0].metrics.record("total_ms", 10.0)
        cluster.shards[0].metrics.record("total_ms", 20.0)
        cluster.shards[1].metrics.record("total_ms", 30.0)
        storages = [
            shard.metrics.stage("total_ms")._samples for shard in cluster.shards
        ]
        before = [list(storage) for storage in storages]

        def forbidden_copy(self):
            raise AssertionError("merge must not copy via Histogram.samples()")

        original = Histogram.samples
        Histogram.samples = forbidden_copy
        try:
            snapshot = cluster.metrics.snapshot()
        finally:
            Histogram.samples = original
        latency = snapshot["cluster"]["latency"]["total_ms"]
        assert latency["count"] == 3
        assert latency["mean"] == pytest.approx(20.0)
        # Same storage objects, same contents: no mutation, no swap.
        for storage, shard, expected in zip(storages, cluster.shards, before):
            assert shard.metrics.stage("total_ms")._samples is storage
            assert list(storage) == expected


class TestClusterThreadStress:
    def test_four_shards_shed_strictly_less_than_one_at_same_load(self):
        """The acceptance bar: more shards, same offered load, fewer sheds.

        Lands the same 96-request burst on a 1-shard and a 4-shard cluster
        before their worker pools start, so queue capacity and not thread
        scheduling decides the sheds; the pools then drain it while a
        sampler audits every ledger concurrently. Every audit stays clean
        (zero over-capacity states) and the 4-shard cluster's final shed
        rate is strictly lower.
        """
        rates = {}
        for shard_count in (1, 4):
            cluster, testbeds = make_cluster(shard_count, queue_capacity=8)
            driver = ThreadPoolDriver(cluster, workers=2)
            audit_problems = []
            stop_sampling = threading.Event()

            def sampler():
                while not stop_sampling.is_set():
                    problems = cluster.audit()
                    if problems:
                        audit_problems.extend(problems)
                        return

            sampler_thread = threading.Thread(target=sampler, daemon=True)
            sampler_thread.start()
            try:
                for index in range(96):
                    cluster.submit(
                        request(
                            testbeds[0],
                            f"req-{index}",
                            user_id=f"user-{index % 13}",
                        )
                    )
                driver.start()
                assert driver.wait_idle(timeout=60.0)
            finally:
                driver.stop()
                stop_sampling.set()
                sampler_thread.join(timeout=5.0)

            assert audit_problems == []
            assert cluster.audit() == []
            whole = cluster.metrics.snapshot()["cluster"]
            # Every distinct request reached exactly one final disposition.
            assert (
                whole["admitted"] + whole["failed"] + whole["shed_final"]
                == whole["submitted"]
                == 96
            )
            rates[shard_count] = whole["derived"]["shed_rate"]

        assert rates[4] < rates[1]
