"""Per-class Pareto fronts at the admission edge.

Covers the front cache (hit/miss/invalidation accounting, registry-bump
round-trips), the class-front invariants (no mutual dominance, identical
replays), utility-profile-ordered ladder walks on the unbatched *and*
batched paths, and the entry-offset clamp on both paths.
"""

import dataclasses
import json

import pytest

from repro.apps.audio_on_demand import (
    STREAM_MBPS,
    audio_abstract_graph,
    audio_request,
    build_audio_testbed,
)
from repro.discovery.registry import ServiceDescription
from repro.distribution.pareto import ParetoPoint, dominates, utility_profile
from repro.graph.abstract import AbstractServiceGraph
from repro.graph.service_graph import ServiceComponent
from repro.resources.vectors import ResourceVector
from repro.runtime.degradation import DegradationLadder
from repro.server.admission import FrontCache
from repro.server.batching import BatchingDomainService, BatchPolicy
from repro.server.service import (
    DomainConfigurationService,
    RequestStatus,
    ServerRequest,
)

from tests.server.conftest import audio_ladder


def make_service(testbed, **kwargs):
    kwargs.setdefault("ladder", audio_ladder())
    kwargs.setdefault("skip_downloads", True)
    return DomainConfigurationService(testbed.configurator, **kwargs)


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


def bump_registry(testbed):
    """Register an unrelated service so the registry version advances."""
    registry = testbed.configurator.composer.discovery.registry
    before = registry.version
    registry.register(
        ServiceDescription(
            service_type="noop_probe_target",
            provider_id=f"noop@{before}",
            component_template=ServiceComponent(
                component_id="noop",
                service_type="noop_probe_target",
                resources=ResourceVector(memory=1.0),
            ),
        )
    )
    assert registry.version != before


class TestFrontCache:
    def probed(self, label):
        return (
            ParetoPoint(1.0, 0.0, 1.0, 1.0, key=("level0", label)),
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FrontCache(max_entries=0)

    def test_miss_then_hit(self):
        cache = FrontCache()
        assert cache.get(("k",), 1) is None
        cache.put(("k",), 1, self.probed("full"))
        assert cache.get(("k",), 1).points == self.probed("full")
        assert (cache.hits, cache.misses, cache.invalidations) == (1, 1, 0)

    def test_stale_token_invalidates(self):
        cache = FrontCache()
        cache.put(("k",), 1, self.probed("full"))
        assert cache.get(("k",), 2) is None
        assert (cache.hits, cache.misses, cache.invalidations) == (0, 1, 1)
        assert len(cache) == 0

    def test_lru_bound(self):
        cache = FrontCache(max_entries=2)
        cache.put(("a",), 1, self.probed("full"))
        cache.put(("b",), 1, self.probed("full"))
        assert cache.get(("a",), 1) is not None  # refresh a
        cache.put(("c",), 1, self.probed("full"))  # evicts b
        assert len(cache) == 2
        assert cache.get(("b",), 1) is None
        assert cache.get(("a",), 1) is not None
        assert cache.get(("c",), 1) is not None


class TestClassFronts:
    def test_one_measured_point_per_rung(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        points = service.admission.class_points(audio_request(testbed, "desktop1"))
        assert len(points) == 3
        assert [p.key for p in points] == [
            ("level0", "full"),
            ("level1", "reduced"),
            ("level2", "economy"),
        ]
        # Fidelity loss is pinned to the rung's demand scale by definition.
        assert [p.fidelity_loss for p in points] == pytest.approx([0.0, 0.3, 0.55])

    def test_repeat_lookups_hit_the_cache(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        composition = audio_request(testbed, "desktop1")
        first = service.admission.class_points(composition)
        second = service.admission.class_points(composition)
        cache = service.admission.front_cache
        assert cache.hits == 1 and cache.misses == 1
        assert first == second
        # Probing acquires nothing and leaves no session behind.
        assert service.ledger.audit() == []
        assert service.configurator.sessions == {}

    def test_registry_bump_invalidates_then_reprobes_identically(self):
        """The satellite-4 round-trip: bump, re-probe, same points."""
        testbed = build_audio_testbed()
        service = make_service(testbed)
        composition = audio_request(testbed, "desktop1")
        before = service.admission.class_points(composition)
        bump_registry(testbed)
        after = service.admission.class_points(composition)
        cache = service.admission.front_cache
        assert cache.invalidations == 1
        assert cache.misses == 2
        # Nothing about the environment changed, so the re-probed points
        # round-trip bit-for-bit.
        assert [p.as_dict() for p in after] == [p.as_dict() for p in before]
        # And the fresh stamp serves hits again.
        service.admission.class_points(composition)
        assert cache.hits == 1

    def test_same_named_graph_with_heavier_edge_is_its_own_class(self):
        """A graph's name and size do not identify its class: structure does."""

        def heavy_request(testbed):
            light = audio_abstract_graph()
            heavy = AbstractServiceGraph(name=light.name)
            for spec in light.specs():
                heavy.add_spec(spec)
            for edge in light.edges():
                heavy.connect(edge.source, edge.target, 4 * STREAM_MBPS)
            return dataclasses.replace(
                audio_request(testbed, "jornada"), abstract_graph=heavy
            )

        testbed = build_audio_testbed()
        alone = make_service(testbed).admission.class_points(heavy_request(testbed))
        # The jornada's wireless link cannot carry the heavy full-QoS stream.
        assert alone[0] is None

        testbed = build_audio_testbed()
        service = make_service(testbed)
        light = service.admission.class_points(audio_request(testbed, "jornada"))
        assert light[0] is not None
        after_light = service.admission.class_points(heavy_request(testbed))
        assert after_light == alone
        assert service.admission.front_cache.hits == 0

    def test_front_members_never_dominate_each_other(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        front = service.admission.class_front(audio_request(testbed, "desktop1"))
        members = front.points()
        assert members
        for a in members:
            for b in members:
                if a is not b:
                    assert not dominates(a, b, front.epsilon)

    def test_disabled_cache_still_probes(self):
        testbed = build_audio_testbed()
        service = make_service(testbed, front_cache=False)
        assert service.admission.front_cache is None
        points = service.admission.class_points(audio_request(testbed, "desktop1"))
        assert len(points) == 3

    def test_class_points_without_ladder_raises(self):
        testbed = build_audio_testbed()
        service = make_service(testbed, ladder=None)
        with pytest.raises(ValueError):
            service.admission.class_points(audio_request(testbed, "desktop1"))


class TestLevelOrder:
    def test_no_profile_keeps_best_fidelity_first(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        composition = audio_request(testbed, "desktop1")
        assert service.admission.level_order(composition) == (0, 1, 2)

    def test_fidelity_first_profile_keeps_full_on_top(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        composition = audio_request(testbed, "desktop1")
        order = service.admission.level_order(
            composition, profile="fidelity_first"
        )
        assert order[0] == 0

    def test_resource_lean_profile_prefers_the_cheapest_rung(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        composition = audio_request(testbed, "desktop1")
        order = service.admission.level_order(
            composition, profile="resource_lean"
        )
        assert order[0] == 2

    def test_entry_offset_slices_the_preference_order(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        composition = audio_request(testbed, "desktop1")
        service.admission.set_entry_offset(1, max_priority=0)
        assert service.admission.level_order(composition, priority=0) == (1, 2)
        assert service.admission.level_order(composition, priority=1) == (0, 1, 2)

    def test_unknown_profile_name_raises(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        with pytest.raises(ValueError):
            service.admission.level_order(
                audio_request(testbed, "desktop1"), profile="nope"
            )


class TestWalkOrderMemo:
    PROFILES = ("fidelity_first", "resource_lean", "battery_saver")

    def counting_order_for(self, monkeypatch):
        calls = []
        fresh = DegradationLadder.order_for

        def order_for(ladder, profile, points=None):
            calls.append(profile.name)
            return fresh(ladder, profile, points)

        monkeypatch.setattr(DegradationLadder, "order_for", order_for)
        return calls, fresh

    def test_once_per_class_and_profile_while_the_entry_lives(self, monkeypatch):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        admission = service.admission
        composition = audio_request(testbed, "desktop1")
        calls, fresh = self.counting_order_for(monkeypatch)
        for _round in range(3):
            for name in self.PROFILES:
                order = admission.level_order(composition, profile=name)
                points = admission.class_points(composition)
                assert order == tuple(
                    fresh(admission.ladder, utility_profile(name), points)
                )
        assert calls == list(self.PROFILES)
        # One lookup per level_order plus one per check above, as before.
        cache = admission.front_cache
        assert (cache.hits, cache.misses, cache.invalidations) == (17, 1, 0)

    def test_registry_bump_recomputes_the_order(self, monkeypatch):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        admission = service.admission
        composition = audio_request(testbed, "desktop1")
        calls, _fresh = self.counting_order_for(monkeypatch)
        before = admission.level_order(composition, profile="resource_lean")
        admission.level_order(composition, profile="resource_lean")
        bump_registry(testbed)
        after = admission.level_order(composition, profile="resource_lean")
        admission.level_order(composition, profile="resource_lean")
        assert calls == ["resource_lean", "resource_lean"]
        assert after == before
        cache = admission.front_cache
        assert (cache.hits, cache.misses, cache.invalidations) == (2, 2, 1)

    def test_entry_offset_slices_the_memoized_order(self, monkeypatch):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        admission = service.admission
        composition = audio_request(testbed, "desktop1")
        calls, _fresh = self.counting_order_for(monkeypatch)
        full = admission.level_order(composition, profile="resource_lean")
        admission.set_entry_offset(1, max_priority=0)
        assert admission.level_order(
            composition, priority=0, profile="resource_lean"
        ) == full[1:]
        assert admission.level_order(
            composition, priority=1, profile="resource_lean"
        ) == full
        assert calls == ["resource_lean"]

    def test_disabled_cache_orders_every_request(self, monkeypatch):
        testbed = build_audio_testbed()
        service = make_service(testbed, front_cache=False)
        composition = audio_request(testbed, "desktop1")
        calls, _fresh = self.counting_order_for(monkeypatch)
        orders = {
            service.admission.level_order(composition, profile="resource_lean")
            for _ in range(2)
        }
        assert len(orders) == 1
        assert calls == ["resource_lean", "resource_lean"]


class TestProfileDrivenAdmission:
    def test_resource_lean_request_lands_on_economy_by_choice(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.submit(
            request(testbed, "r1", utility_profile="resource_lean")
        )
        outcome = service.drain()[0]
        # Plenty of capacity; the profile *prefers* the economy rung —
        # and a chosen rung is an admission, not a degradation (degraded
        # means the walk descended or an offset forced a lower start).
        assert outcome.status is RequestStatus.ADMITTED
        assert outcome.level == "admit@economy"

    def test_fidelity_first_request_keeps_full_fidelity(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.submit(
            request(testbed, "r1", utility_profile="fidelity_first")
        )
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.ADMITTED
        assert outcome.level == "admit@full"

    def test_batched_walk_honours_the_profile_order(self):
        testbed = build_audio_testbed()
        batched = make_batching_service(testbed)
        batched.submit(
            request(testbed, "r1", utility_profile="resource_lean")
        )
        batched.submit(
            request(testbed, "r2", utility_profile="fidelity_first")
        )
        outcomes = {o.request_id: o for o in batched.drain()}
        assert outcomes["r1"].level == "admit@economy"
        assert outcomes["r2"].level == "admit@full"


class TestBatchedEntryOffsetClamp:
    def test_offset_is_clamped_so_one_rung_remains(self):
        """The batched twin of the unbatched clamp regression test."""
        testbed = build_audio_testbed()
        batched = make_batching_service(testbed)
        batched.admission.set_entry_offset(99, max_priority=0)
        assert batched.admission.entry_offset_for(0) == 2  # of 3 rungs
        batched.submit(request(testbed, "r1", priority=0))
        outcome = batched.drain()[0]
        assert outcome.status is RequestStatus.DEGRADED
        assert outcome.level == "admit@economy"

    def test_high_priority_batch_mates_keep_the_full_ladder(self):
        testbed = build_audio_testbed()
        batched = make_batching_service(testbed)
        batched.admission.set_entry_offset(99, max_priority=0)
        batched.submit(request(testbed, "low", priority=0))
        batched.submit(request(testbed, "high", priority=1))
        outcomes = {o.request_id: o for o in batched.drain()}
        assert outcomes["low"].level == "admit@economy"
        assert outcomes["high"].level == "admit@full"


class TestParetoDeterminism:
    def run_once(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        profiles = (None, "resource_lean", "fidelity_first", "battery_saver")
        for index, profile in enumerate(profiles):
            service.submit(
                request(testbed, f"r{index}", utility_profile=profile)
            )
        outcomes = [
            (o.request_id, o.status.name, o.level) for o in service.drain()
        ]
        front = service.admission.class_front(audio_request(testbed, "desktop1"))
        return json.dumps(
            {
                "outcomes": outcomes,
                "front": [p.as_dict() for p in front.points()],
            },
            sort_keys=True,
        )

    def test_replay_is_byte_identical(self):
        """Two identical runs serialise to the same bytes (satellite 3)."""
        assert self.run_once() == self.run_once()
