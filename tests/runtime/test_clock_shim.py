"""The scheduler protocol lives in repro.runtime.clock."""

from repro.runtime import clock


class TestCanonicalLocation:
    def test_runtime_clock_exports_the_protocol(self):
        for name in ("Scheduler", "SimScheduler", "WallClockScheduler"):
            assert hasattr(clock, name)

    def test_runtime_package_reexports(self):
        from repro import runtime

        assert runtime.SimScheduler is clock.SimScheduler
        assert runtime.WallClockScheduler is clock.WallClockScheduler
