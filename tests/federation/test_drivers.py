"""Driving a federation tier: deterministic sim replay, scheduled roams,
and real thread pools."""

from repro.federation import MigrationSchedule
from repro.server.drivers import SimulatedServerDriver, ThreadPoolDriver
from repro.sim.kernel import Simulator
from repro.workloads.arrivals import arrival_trace
from tests.federation.conftest import federated_request, two_cluster_federation


def sim_setup(queue_capacity=16):
    simulator = Simulator()
    tier, testbeds = two_cluster_federation(
        queue_capacity=queue_capacity,
        clock=SimulatedServerDriver.clock(simulator),
    )
    driver = SimulatedServerDriver(
        tier, simulator, workers=1, min_service_s=1.0
    )
    roams = MigrationSchedule(tier, simulator)
    return simulator, tier, testbeds, driver, roams


def to_request(testbeds, event):
    home = "cluster0" if event.request_id % 3 else "cluster1"
    return federated_request(
        testbeds,
        rid=f"req-{event.request_id}",
        home=home,
        duration_s=event.duration_s,
    )


class TestSimulatedDriver:
    def test_every_arrival_gets_one_outcome(self):
        _sim, tier, testbeds, driver, roams = sim_setup()
        trace = arrival_trace(
            seed=3, rate_per_s=0.3, horizon_s=60.0, mean_duration_s=10.0
        )
        driver.schedule_trace(trace, lambda e: to_request(testbeds, e))
        outcomes = driver.run()
        assert len(outcomes) == len(list(trace))
        assert tier.audit() == []

    def test_replay_is_deterministic(self):
        def one_run():
            _sim, tier, testbeds, driver, roams = sim_setup()
            trace = arrival_trace(
                seed=3, rate_per_s=0.4, horizon_s=90.0, mean_duration_s=15.0
            )
            driver.schedule_trace(trace, lambda e: to_request(testbeds, e))
            events = list(trace)
            roams.schedule(
                events[0].arrival_s + 1.0, "req-0", "cluster0", "desktop1"
            )
            driver.run()
            return tier.metrics.to_json()

        assert one_run() == one_run()

    def test_migration_fires_for_running_session(self):
        _sim, tier, testbeds, driver, roams = sim_setup()
        trace = arrival_trace(
            seed=5,
            rate_per_s=0.1,
            horizon_s=30.0,
            mean_duration_s=25.0,
            duration_bounds_s=(20.0, 30.0),
        )
        events = list(trace)
        driver.schedule_trace(trace, lambda e: to_request(testbeds, e))
        first = events[0]
        home = "cluster0" if first.request_id % 3 else "cluster1"
        destination = "cluster1" if home == "cluster0" else "cluster0"
        roams.schedule(
            first.arrival_s + 5.0,
            f"req-{first.request_id}",
            destination,
            "desktop1",
        )
        driver.run()
        assert len(roams.migrations) == 1
        assert roams.migrations[0].success
        assert tier.audit() == []

    def test_stale_roam_hint_is_dropped(self):
        _sim, tier, testbeds, driver, roams = sim_setup()
        # Nothing was ever submitted under this id.
        roams.schedule(1.0, "req-ghost", "cluster1", "desktop1")
        # Same-cluster hint is also a no-op.
        trace = arrival_trace(
            seed=5, rate_per_s=0.1, horizon_s=20.0, mean_duration_s=30.0
        )
        driver.schedule_trace(trace, lambda e: to_request(testbeds, e))
        events = list(trace)
        first = events[0]
        home = "cluster0" if first.request_id % 3 else "cluster1"
        roams.schedule(
            first.arrival_s + 2.0, f"req-{first.request_id}", home, "desktop1"
        )
        driver.run()
        assert roams.migrations == []

    def test_roam_hint_after_session_end_is_dropped(self):
        _sim, tier, testbeds, driver, roams = sim_setup()
        trace = arrival_trace(
            seed=5,
            rate_per_s=0.1,
            horizon_s=20.0,
            mean_duration_s=5.0,
            duration_bounds_s=(5.0, 5.0),
        )
        driver.schedule_trace(trace, lambda e: to_request(testbeds, e))
        events = list(trace)
        first = events[0]
        home = "cluster0" if first.request_id % 3 else "cluster1"
        destination = "cluster1" if home == "cluster0" else "cluster0"
        roams.schedule(
            first.arrival_s + 500.0,
            f"req-{first.request_id}",
            destination,
            "desktop1",
        )
        driver.run()
        assert roams.migrations == []


class TestThreadDriver:
    def test_burst_drains_and_stays_balanced(self):
        tier, testbeds = two_cluster_federation(queue_capacity=16)
        driver = ThreadPoolDriver(tier, workers=2)
        driver.start()
        try:
            for index in range(24):
                home = "cluster0" if index % 3 else "cluster1"
                tier.submit(
                    federated_request(
                        testbeds, rid=f"req-{index}", home=home
                    )
                )
            assert driver.wait_idle(timeout=30.0)
        finally:
            driver.stop()
        assert tier.audit() == []
        snapshot = tier.metrics.snapshot()
        whole = snapshot["federation"]
        assert whole["submitted"] == 24
        # Degraded admissions are a subset of admitted (cluster snapshot
        # semantics), so the three disjoint dispositions must cover all.
        disposed = whole["admitted"] + whole["failed"] + whole["shed_final"]
        assert disposed == 24
