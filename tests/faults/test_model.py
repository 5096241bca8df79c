"""Fault model: spec validation, schedule ordering, seeded storms."""

import pytest

from repro.faults.model import (
    FaultKind,
    FaultSchedule,
    FaultSpec,
    random_fault_schedule,
)


class TestFaultSpec:
    def test_link_faults_require_a_peer(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_DEGRADE, 1.0, "a")
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_PARTITION, 1.0, "a")

    def test_degrade_magnitude_must_leave_headroom(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_DEGRADE, 1.0, "a", peer="b", magnitude=1.0)
        FaultSpec(FaultKind.LINK_DEGRADE, 1.0, "a", peer="b", magnitude=0.0)

    def test_pressure_magnitude_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.RESOURCE_PRESSURE, 1.0, "a", magnitude=0.0)

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DEVICE_CRASH, -1.0, "a")
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.DEVICE_CRASH, 1.0, "a", duration_s=-1.0)

    def test_describe_mentions_target_and_time(self):
        spec = FaultSpec(
            FaultKind.LINK_DEGRADE, 5.0, "a", peer="b", magnitude=0.2,
            duration_s=10.0,
        )
        text = spec.describe()
        assert "a<->b" in text and "t=5s" in text and "20%" in text


    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(FaultKind.DEVICE_CRASH, 1.0, "")

    def test_describe_pressure_names_its_share(self):
        spec = FaultSpec(
            FaultKind.RESOURCE_PRESSURE, 3.0, "d1", magnitude=0.4, duration_s=5.0
        )
        text = spec.describe()
        assert "d1" in text and "40% availability" in text


class TestFaultSchedule:
    def test_specs_are_time_ordered(self):
        schedule = FaultSchedule.of(
            FaultSpec(FaultKind.DEVICE_CRASH, 9.0, "late"),
            FaultSpec(FaultKind.DEVICE_CRASH, 1.0, "early"),
        )
        assert [s.target for s in schedule] == ["early", "late"]
        assert schedule.horizon_s() == 9.0

    def test_by_kind_filters(self):
        schedule = FaultSchedule.of(
            FaultSpec(FaultKind.DEVICE_CRASH, 1.0, "a"),
            FaultSpec(FaultKind.DEVICE_DEPART, 2.0, "b"),
        )
        assert len(schedule.by_kind(FaultKind.DEVICE_CRASH)) == 1
        assert len(schedule) == 2


class TestRandomSchedule:
    def test_same_seed_same_storm(self):
        kwargs = dict(
            horizon_s=300.0,
            crash_targets=("a", "b"),
            link_pairs=(("a", "b"),),
            pressure_targets=("c",),
            crash_rate_per_min=0.5,
            link_rate_per_min=0.5,
            pressure_rate_per_min=0.5,
        )
        first = random_fault_schedule(seed=7, **kwargs)
        second = random_fault_schedule(seed=7, **kwargs)
        assert first == second
        assert random_fault_schedule(seed=8, **kwargs) != first

    def test_crash_targets_consumed_at_most_once(self):
        schedule = random_fault_schedule(
            seed=1,
            horizon_s=600.0,
            crash_targets=("a", "b"),
            crash_rate_per_min=10.0,
        )
        crashes = schedule.by_kind(FaultKind.DEVICE_CRASH)
        assert len(crashes) == 2
        assert {c.target for c in crashes} == {"a", "b"}

    def test_all_times_inside_horizon(self):
        schedule = random_fault_schedule(
            seed=3,
            horizon_s=60.0,
            pressure_targets=("a",),
            pressure_rate_per_min=5.0,
        )
        assert schedule
        assert all(0.0 <= s.at_s < 60.0 for s in schedule)

    def test_zero_rates_yield_empty_schedule(self):
        assert len(random_fault_schedule(seed=1, horizon_s=10.0)) == 0

    def test_non_positive_horizon_rejected(self):
        with pytest.raises(ValueError, match="horizon"):
            random_fault_schedule(seed=1, horizon_s=0.0)

    def test_depart_targets_consumed_at_most_once(self):
        schedule = random_fault_schedule(
            seed=2,
            horizon_s=600.0,
            depart_targets=("a", "b", "c"),
            depart_rate_per_min=10.0,
        )
        departures = schedule.by_kind(FaultKind.DEVICE_DEPART)
        assert [d.target for d in departures] == ["a", "b", "c"]
        assert len(schedule) == 3
