"""Lowering: seeds, testbeds, traces, fault schedules, factories."""

from dataclasses import replace

import pytest

from repro.scenarios import (
    catalog_scenarios,
    compile_scenario,
    derive_seed,
    load_catalog_scenario,
)
from repro.workloads.arrivals import arrival_trace


def with_arrivals(spec, **changes):
    return replace(spec, arrivals=replace(spec.arrivals, **changes))


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(42, "arrivals") == derive_seed(42, "arrivals")

    def test_labels_split_streams(self):
        labels = ["arrivals", "faults", "shard0/arrivals", "shard1/arrivals"]
        derived = {derive_seed(42, label) for label in labels}
        assert len(derived) == len(labels)

    def test_seed_matters(self):
        assert derive_seed(1, "arrivals") != derive_seed(2, "arrivals")

    def test_fits_in_63_bits(self):
        assert 0 <= derive_seed(42, "arrivals") < 2**63


class TestCompileMinimal:
    def test_testbed_has_declared_devices(self, spec):
        compiled = compile_scenario(spec)
        testbed = compiled.build_testbed()
        assert sorted(testbed.devices) == ["hub", "kiosk"]
        assert testbed.configurator is not None

    def test_single_seed_threads_both_streams(self, spec):
        compiled = compile_scenario(spec)
        first = compiled.arrival_trace()
        second = compile_scenario(spec).arrival_trace()
        assert [e.arrival_s for e in first] == [e.arrival_s for e in second]
        assert [e.duration_s for e in first] == [e.duration_s for e in second]

    def test_multiplier_scales_offered_load(self, spec):
        compiled = compile_scenario(spec)
        base = len(list(compiled.arrival_trace()))
        heavy = len(list(compiled.arrival_trace(multiplier=4.0)))
        assert heavy > base

    def test_request_factory_builds_requests(self, spec):
        compiled = compile_scenario(spec)
        testbed = compiled.build_testbed()
        to_request = compiled.request_factory(testbed)
        events = list(compiled.arrival_trace())
        assert events
        request = to_request(events[0])
        assert request.request_id == f"req-{events[0].request_id}"
        assert request.workload == "watch"
        assert request.composition.client_device_id == "kiosk"

    def test_users_rotate_user_ids(self, spec):
        compiled = compile_scenario(with_arrivals(spec, users=3))
        to_request = compiled.request_factory(compiled.build_testbed())
        events = list(compiled.arrival_trace(multiplier=4.0))
        assert len(events) > 3
        assert [to_request(e).user_id for e in events] == [
            f"user-{e.request_id % 3}" for e in events
        ]

    def test_without_users_each_request_is_its_own_user(self, spec):
        compiled = compile_scenario(spec)
        to_request = compiled.request_factory(compiled.build_testbed())
        for event in compiled.arrival_trace(multiplier=4.0):
            assert to_request(event).user_id == f"user-{event.request_id}"

    def test_direct_seeding_uses_the_scenario_seed(self, spec):
        direct = with_arrivals(spec, derive_seed=False)
        trace = compile_scenario(direct).arrival_trace()
        expected = arrival_trace(
            seed=spec.seed,
            rate_per_s=spec.arrivals.rate_per_s,
            horizon_s=spec.arrivals.horizon_s,
            mean_duration_s=spec.arrivals.mean_duration_s,
            duration_bounds_s=tuple(spec.arrivals.duration_bounds_s),
        )
        assert [e.arrival_s for e in trace] == [e.arrival_s for e in expected]
        derived = compile_scenario(spec).arrival_trace()
        assert [e.arrival_s for e in trace] != [e.arrival_s for e in derived]

    def test_seed_override_changes_a_directly_seeded_trace(self, spec):
        direct = with_arrivals(spec, derive_seed=False)
        first = compile_scenario(direct).arrival_trace(multiplier=4.0)
        second = compile_scenario(replace(direct, seed=99)).arrival_trace(
            multiplier=4.0
        )
        assert [e.arrival_s for e in first] != [e.arrival_s for e in second]

    def test_no_faults_means_no_schedule(self, spec):
        assert compile_scenario(spec).fault_schedule() is None


class TestCompileCatalog:
    @pytest.mark.parametrize("name", catalog_scenarios())
    def test_compiles_and_traces(self, name):
        compiled = compile_scenario(load_catalog_scenario(name))
        testbed = compiled.build_testbed()
        assert testbed.devices
        assert list(compiled.arrival_trace())

    def test_fault_schedule_is_deterministic(self):
        spec = load_catalog_scenario("vehicular_corridor")
        first = compile_scenario(spec).fault_schedule()
        second = compile_scenario(spec).fault_schedule()
        assert first is not None
        assert [
            (f.kind, f.at_s, f.target) for f in first.specs
        ] == [(f.kind, f.at_s, f.target) for f in second.specs]

    def test_fault_targets_expand_replicas(self):
        spec = load_catalog_scenario("vehicular_corridor")
        schedule = compile_scenario(spec).fault_schedule()
        targets = {f.target for f in schedule.specs}
        concrete = set(spec.device_ids()) | set(spec.hubs)
        assert targets <= concrete

    def test_mix_weights_shape_the_workload_cycle(self):
        spec = load_catalog_scenario("smart_home_evening")
        compiled = compile_scenario(spec)
        cycle = compiled.workload_cycle
        assert cycle.count("watch_tv") == 2
        assert cycle.count("stream_music") == 3
