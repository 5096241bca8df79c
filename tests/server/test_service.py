"""Functional tests for the domain configuration service front end."""

import pytest

from repro.apps.audio_on_demand import audio_request, build_audio_testbed
from repro.distribution.heuristic import HeuristicDistributor
from repro.resources.vectors import ResourceVector
from repro.runtime.session import SessionState
from repro.server.admission import OverloadPolicy
from repro.server.queue import QueuePolicy
from repro.server.service import (
    DomainConfigurationService,
    RequestStatus,
    ServerRequest,
)

from tests.server.conftest import audio_ladder


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


def make_service(testbed, **kwargs):
    kwargs.setdefault("ladder", audio_ladder())
    kwargs.setdefault("skip_downloads", True)
    return DomainConfigurationService(testbed.configurator, **kwargs)


def request(testbed, rid, client="desktop1", **kwargs):
    return ServerRequest(
        request_id=rid,
        composition=audio_request(testbed, client),
        **kwargs,
    )


class TestAdmission:
    def test_submit_then_drain_admits(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        submit = service.submit(request(testbed, "r1"))
        assert submit.status is RequestStatus.QUEUED
        outcomes = service.drain()
        assert len(outcomes) == 1
        outcome = outcomes[0]
        assert outcome.status is RequestStatus.ADMITTED
        assert outcome.level == "admit@full"
        assert outcome.session.running
        assert [record.label for record in outcome.attempts] == ["admit@full"]
        assert service.ledger.audit() == []
        assert service.metrics.count("admitted") == 1

    def test_degraded_admission_when_capacity_is_tight(self):
        testbed = build_audio_testbed()
        # Both components pin to desktop1 (the server is hosted there).
        # Leave 46MB free: full needs 64MB, reduced only 44.8MB.
        for name in ("desktop1", "desktop2", "desktop3"):
            testbed.devices[name].allocate(ResourceVector(memory=210.0))
        service = make_service(testbed)
        service.submit(request(testbed, "r1"))
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.DEGRADED
        assert outcome.level == "admit@reduced"
        assert outcome.session.state is SessionState.RUNNING
        assert service.metrics.count("admitted_degraded") == 1
        assert service.ledger.audit() == []

    def test_failure_when_nothing_fits(self):
        testbed = build_audio_testbed()
        for device in testbed.devices.values():
            device.allocate(device.available())
        service = make_service(testbed)
        service.submit(request(testbed, "r1"))
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.FAILED
        assert outcome.level is None
        assert outcome.session.state is SessionState.FAILED
        assert service.metrics.count("failed") == 1
        # One attempt per rung, each labelled in the session's timeline.
        labels = ["admit@full", "admit@reduced", "admit@economy"]
        assert [record.label for record in outcome.attempts] == labels
        assert [record.label for record in outcome.session.timeline] == labels

    def test_stop_session_frees_capacity(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.submit(request(testbed, "r1"))
        outcome = service.drain()[0]
        held = sum(
            (d.allocated for d in testbed.devices.values()),
            ResourceVector(),
        )
        assert not held.is_zero()
        service.stop_session(outcome)
        for device in testbed.devices.values():
            assert device.allocated.is_zero()
        assert service.ledger.audit() == []

    @pytest.mark.parametrize("stored", [False, True], ids=["bare", "stored"])
    def test_records_only_into_a_passed_store(self, stored):
        from repro.store import InMemoryRecordStore, SessionStatus

        testbed = build_audio_testbed()
        store = InMemoryRecordStore() if stored else None
        service = make_service(testbed, store=store)
        assert service.store is store
        assert service.ledger._store is store
        service.submit(request(testbed, "r1"))
        outcome = service.drain()[0]
        service.stop_session(outcome)
        assert service.ledger.audit() == []
        if not stored:
            assert service.epoch is None
            return
        assert service.epoch == 1
        [record] = store.sessions()
        assert record.status == SessionStatus.RELEASED
        assert store.ledger_events(epoch=1)

    def test_session_table_holds_live_sessions_only(self):
        """Stopped sessions and walks that end without a rung leave the
        configurator's table; only running sessions stay."""
        testbed = build_audio_testbed()
        service = make_service(testbed)
        for wave in range(10):
            for index in range(20):
                service.submit(request(testbed, f"r{wave}.{index}"))
            outcomes = service.drain()
            running = [outcome for outcome in outcomes if outcome.admitted]
            assert sorted(testbed.configurator.sessions) == sorted(
                outcome.session.session_id for outcome in running
            )
            for outcome in running:
                service.stop_session(outcome)
        assert service.metrics.count("submitted") == 200
        assert service.metrics.count("failed") > 0
        assert len(testbed.configurator.sessions) == 0
        assert service.ledger.audit() == []

    def test_outcome_lookup(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.submit(request(testbed, "r1"))
        service.drain()
        assert service.outcome("r1").status is RequestStatus.ADMITTED
        assert service.outcome("missing") is None
        assert len(service.outcomes()) == 1

    def test_full_client_fails_each_rung_at_its_pin(self, monkeypatch):
        def failed_rungs():
            testbed = build_audio_testbed()
            client = testbed.devices["jornada"]
            client.allocate(client.available())
            service = make_service(testbed)
            service.submit(request(testbed, "r1", client="jornada"))
            outcome = service.drain()[0]
            assert outcome.status is RequestStatus.FAILED
            return outcome.attempts

        refused = failed_rungs()
        with monkeypatch.context() as patch:
            patch.setattr(
                HeuristicDistributor, "_refuse_at_pins", lambda *args: None
            )
            full = failed_rungs()
        assert [r.label for r in refused] == [r.label for r in full]
        for record, reference in zip(refused, full):
            binding = {
                (v.subject, v.detail) for v in record.distribution.violations
            }
            assert binding == {("jornada", "memory"), ("jornada", "cpu")}
            # Refused at the pins: the greedy placed nothing.
            assert len(record.distribution.assignment) < len(
                reference.distribution.assignment
            )
            assert record.timing.distribution_ms == reference.timing.distribution_ms


class TestShedding:
    def test_queue_full_sheds_with_retry_after(self):
        testbed = build_audio_testbed()
        service = make_service(testbed, queue_capacity=1)
        assert service.submit(request(testbed, "r1")).status is RequestStatus.QUEUED
        shed = service.submit(request(testbed, "r2"))
        assert shed.status is RequestStatus.SHED
        assert shed.shed_reason == "queue_full"
        assert shed.retry_after_s > 0.0
        assert service.metrics.count("shed_queue_full") == 1
        # The shed outcome is final and queryable.
        assert service.outcome("r2").status is RequestStatus.SHED

    def test_overload_sheds_before_queueing(self):
        testbed = build_audio_testbed()
        for device in testbed.devices.values():
            device.allocate(device.available())  # utilization = 1.0
        service = make_service(testbed, queue_capacity=4)
        for index in range(3):  # occupancy 0.75 = high water
            service.submit(request(testbed, f"fill-{index}"))
        shed = service.submit(request(testbed, "r-over"))
        assert shed.status is RequestStatus.SHED
        assert shed.shed_reason == "overload"
        assert service.metrics.count("shed_overload") == 1

    def test_concurrent_submits_respect_high_water_atomically(self):
        """The shed decision and the enqueue are one atomic step.

        With utilization pinned at 1.0 and ``queue_high_water`` 0.75 on a
        capacity-8 queue, sheds must begin at depth 6 (6/8 = 0.75): the
        old read-decide-enqueue path let racing submitters blow past the
        mark. 16 threads submitting at once must leave exactly 6 queued,
        and every shed's retry-after hint must reflect a depth a shed
        could actually have been decided at (≤ 6).
        """
        import threading

        testbed = build_audio_testbed()
        service = make_service(testbed, queue_capacity=8)
        service.ledger.utilization = lambda: 1.0  # saturate the overload signal
        barrier = threading.Barrier(16)
        outcomes = []
        lock = threading.Lock()

        def submitter(index):
            req = request(testbed, f"r{index}")
            barrier.wait()
            outcome = service.submit(req)
            with lock:
                outcomes.append(outcome)

        threads = [
            threading.Thread(target=submitter, args=(i,)) for i in range(16)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert service.queue.depth == 6
        queued = [o for o in outcomes if o.status is RequestStatus.QUEUED]
        shed = [o for o in outcomes if o.status is RequestStatus.SHED]
        assert len(queued) == 6
        assert len(shed) == 10
        max_hint = service.overload.retry_after_s(6)
        for outcome in shed:
            assert outcome.shed_reason == "overload"
            assert outcome.retry_after_s <= max_hint + 1e-9

    def test_deadline_expired_in_queue_is_shed(self):
        testbed = build_audio_testbed()
        clock = FakeClock()
        service = make_service(testbed, clock=clock)
        service.submit(request(testbed, "r1", deadline_s=5.0))
        clock.now = 10.0
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.SHED
        assert outcome.shed_reason == "deadline"
        assert outcome.queue_wait_s == pytest.approx(10.0)
        assert service.metrics.count("shed_deadline") == 1


class TestRetryAfterCap:
    def test_shallow_queue_keeps_linear_hint(self):
        policy = OverloadPolicy()
        assert policy.retry_after_s(0) == pytest.approx(0.25)
        assert policy.retry_after_s(10) == pytest.approx(0.75)

    def test_deep_queue_hint_is_capped(self):
        policy = OverloadPolicy()
        # Linear: 0.25 + 0.05 * 1000 = 50.25s; the ceiling wins.
        assert policy.retry_after_s(1000) == pytest.approx(5.0)
        assert policy.retry_after_s(10_000) == pytest.approx(5.0)

    def test_cap_is_configurable(self):
        policy = OverloadPolicy(retry_after_max_s=1.0)
        assert policy.retry_after_s(100) == pytest.approx(1.0)
        # Below the cap the linear schedule is untouched.
        assert policy.retry_after_s(5) == pytest.approx(0.5)

    def test_shed_outcome_hint_respects_cap(self):
        testbed = build_audio_testbed()
        service = make_service(testbed, queue_capacity=1)
        service.overload.retry_after_max_s = 0.25
        service.submit(request(testbed, "r1"))
        shed = service.submit(request(testbed, "r2"))
        assert shed.status is RequestStatus.SHED
        assert shed.retry_after_s == pytest.approx(0.25)


class TestPolicies:
    def test_priority_queue_serves_high_priority_first(self):
        testbed = build_audio_testbed()
        service = make_service(testbed, queue_policy=QueuePolicy.PRIORITY)
        service.submit(request(testbed, "low", priority=0))
        service.submit(request(testbed, "high", priority=5))
        outcomes = service.drain()
        assert [o.request_id for o in outcomes] == ["high", "low"]

    def test_stage_latencies_recorded_per_admission(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        for index in range(3):
            service.submit(request(testbed, f"r{index}"))
        service.drain()
        metrics = service.metrics
        assert metrics.stage("queue_wait_ms").count == 3
        assert metrics.stage("composition_ms").count == 3
        assert metrics.stage("distribution_ms").count == 3
        assert metrics.stage("total_ms").count == 3
        assert metrics.stage("total_ms").percentile(50) > 0.0


class TestForecastAwareRetryAfter:
    def test_standing_forecast_floors_the_hint(self):
        policy = OverloadPolicy(forecast_horizon_s=8.0)
        # Linear: 0.25 + 0.05 * 10 = 0.75s — but the controller says the
        # congestion persists for the forecast horizon.
        assert policy.retry_after_s(10) == pytest.approx(8.0)
        assert policy.retry_after_s(0) == pytest.approx(8.0)

    def test_forecast_floor_overrides_the_cap(self):
        # retry_after_max_s caps stale-depth guesses, not forecasts: a
        # horizon past the cap still wins.
        policy = OverloadPolicy(retry_after_max_s=5.0, forecast_horizon_s=9.0)
        assert policy.retry_after_s(1000) == pytest.approx(9.0)

    def test_deeper_congestion_still_beats_a_short_forecast(self):
        policy = OverloadPolicy(forecast_horizon_s=0.5)
        # The floor is a floor: a worse linear hint is never shortened.
        assert policy.retry_after_s(100) == pytest.approx(5.0)

    def test_clearing_the_forecast_restores_the_linear_schedule(self):
        policy = OverloadPolicy(forecast_horizon_s=8.0)
        policy.forecast_horizon_s = None
        assert policy.retry_after_s(10) == pytest.approx(0.75)

    def test_shed_outcome_carries_the_forecast_floor(self):
        testbed = build_audio_testbed()
        service = make_service(testbed, queue_capacity=1)
        service.overload.queue_high_water = 0.0
        service.overload.utilization_threshold = 0.0
        service.overload.forecast_horizon_s = 7.5
        shed = service.submit(request(testbed, "r1"))
        assert shed.status is RequestStatus.SHED
        assert shed.retry_after_s == pytest.approx(7.5)


class TestEntryOffset:
    def test_offset_starts_low_priority_walks_one_rung_down(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.admission.set_entry_offset(1, max_priority=0)
        service.submit(request(testbed, "r1", priority=0))
        outcome = service.drain()[0]
        # Plenty of capacity, yet the walk starts (and lands) at the
        # second rung: proactively degraded, still admitted.
        assert outcome.status is RequestStatus.DEGRADED
        assert outcome.level == "admit@reduced"

    def test_high_priority_classes_keep_the_full_ladder(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.admission.set_entry_offset(1, max_priority=0)
        service.submit(request(testbed, "r1", priority=1))
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.ADMITTED
        assert outcome.level == "admit@full"

    def test_clear_restores_the_top_of_the_ladder(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.admission.set_entry_offset(1)
        service.admission.clear_entry_offset()
        service.submit(request(testbed, "r1", priority=0))
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.ADMITTED
        assert outcome.level == "admit@full"

    def test_offset_is_clamped_so_one_rung_remains(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        service.admission.set_entry_offset(99, max_priority=0)
        assert service.admission.entry_offset_for(0) == 2  # of 3 rungs
        service.submit(request(testbed, "r1", priority=0))
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.DEGRADED
        assert outcome.level == "admit@economy"

    def test_negative_offset_rejected(self):
        testbed = build_audio_testbed()
        service = make_service(testbed)
        with pytest.raises(ValueError):
            service.admission.set_entry_offset(-1)

    def test_offset_without_a_ladder_is_a_no_op(self):
        testbed = build_audio_testbed()
        service = make_service(testbed, ladder=None)
        service.admission.set_entry_offset(1, max_priority=0)
        assert service.admission.entry_offset_for(0) == 0
        service.submit(request(testbed, "r1", priority=0))
        outcome = service.drain()[0]
        assert outcome.status is RequestStatus.ADMITTED
