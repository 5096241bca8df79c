"""Wiring the domain substrate onto the simulation clock."""

from repro.domain.device import Device
from repro.domain.space import SmartSpace
from repro.events.types import Topics
from repro.resources.vectors import ResourceVector
from repro.sim.kernel import Simulator


class TestClockWiring:
    def test_events_carry_simulation_timestamps(self):
        sim = Simulator()
        space = SmartSpace(clock=lambda: sim.now)
        office = space.create_domain("office")

        def join_later():
            office.join(Device("pc1", capacity=ResourceVector(memory=1)))

        sim.schedule(12.5, join_later)
        sim.run()
        events = office.bus.history(Topics.DEVICE_JOINED)
        assert len(events) == 1
        assert events[0].timestamp == 12.5

    def test_user_switch_timestamped(self):
        sim = Simulator()
        space = SmartSpace(clock=lambda: sim.now)
        office = space.create_domain("office")
        office.join(Device("pc1", capacity=ResourceVector(memory=1)))
        office.join(Device("pda1", capacity=ResourceVector(memory=1)))
        space.register_user("alice", "office", "pc1")

        sim.schedule(30.0, lambda: space.switch_device("alice", "pda1"))
        sim.run()
        events = office.domain.bus.history(Topics.USER_DEVICE_SWITCHED)
        assert events[0].timestamp == 30.0

    def test_crash_timestamped(self):
        sim = Simulator(start_time=100.0)
        space = SmartSpace(clock=lambda: sim.now)
        office = space.create_domain("office")
        office.join(Device("pc1", capacity=ResourceVector(memory=1)))
        office.crash("pc1")
        events = office.bus.history(Topics.DEVICE_CRASHED)
        assert events[0].timestamp == 100.0
