"""The scheduler protocol lives in repro.runtime.clock."""

import warnings

from repro.runtime import clock


class TestCanonicalLocation:
    def test_runtime_clock_exports_the_protocol(self):
        for name in ("Scheduler", "SimScheduler", "WallClockScheduler"):
            assert hasattr(clock, name)

    def test_runtime_package_reexports(self):
        from repro import runtime

        assert runtime.SimScheduler is clock.SimScheduler
        assert runtime.WallClockScheduler is clock.WallClockScheduler

    def test_top_level_reexports(self):
        import repro

        assert repro.SimScheduler is clock.SimScheduler
        assert repro.Scheduler is clock.Scheduler

    def test_faults_package_reexport_does_not_warn(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            from repro.faults import SimScheduler
        assert SimScheduler is clock.SimScheduler
        assert not [
            entry
            for entry in caught
            if issubclass(entry.category, DeprecationWarning)
        ]
