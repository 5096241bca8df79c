"""Unit tests for the simulation kernel."""

import pytest

from repro.sim.kernel import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_same_time_events_fire_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in ("a", "b", "c"):
            sim.schedule(1.0, lambda t=tag: order.append(t))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_scheduling_in_past_rejected(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(5.0, lambda: None)

    def test_events_may_schedule_new_events(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(1.0, second)

        def second():
            log.append(sim.now)

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1.0, 2.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        sim.run()
        assert fired == []

    def test_pending_excludes_cancelled(self):
        sim = Simulator()
        handle = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        handle.cancel()
        assert sim.pending_events == 1


    def test_cancel_owned_drops_only_that_owners_events(self):
        sim = Simulator()
        fired = []
        dead, live = object(), object()
        sim.schedule(1.0, lambda: fired.append("dead"), dead)
        sim.schedule_at(2.0, lambda: fired.append("live"), live)
        sim.schedule(3.0, lambda: fired.append("untagged"))
        sim.cancel_owned(dead)
        assert sim.pending_events == 2
        sim.run()
        assert fired == ["live", "untagged"]


class TestRunUntil:
    def test_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        executed = sim.run_until(3.0)
        assert executed == 1
        assert fired == [1]
        assert sim.now == 3.0

    def test_event_at_exact_boundary_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(3.0)
        assert fired == [3]

    def test_clock_advances_even_when_queue_empty(self):
        sim = Simulator()
        sim.run_until(42.0)
        assert sim.now == 42.0

    def test_cannot_run_backwards(self):
        sim = Simulator(start_time=10.0)
        with pytest.raises(ValueError):
            sim.run_until(5.0)

    def test_resumable(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(2.0)
        sim.run_until(10.0)
        assert fired == [1, 5]


class TestBookkeeping:
    def test_processed_count(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 3

    def test_run_with_event_budget(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        executed = sim.run(max_events=2)
        assert executed == 2
        assert sim.pending_events == 3

    def test_clear_drops_pending(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.clear()
        assert sim.pending_events == 0
