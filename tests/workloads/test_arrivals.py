"""Determinism and distribution tests for the arrival-trace generator."""

import pytest

from repro.workloads import arrival_trace


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = arrival_trace(seed=7, rate_per_s=2.0, horizon_s=120.0)
        b = arrival_trace(seed=7, rate_per_s=2.0, horizon_s=120.0)
        assert a == b

    def test_same_seed_identical_across_processes(self):
        kwargs = dict(
            seed=11,
            rate_per_s=1.5,
            horizon_s=200.0,
            arrival_process="pareto",
            duration_process="pareto",
            graph_count=3,
            priorities=(0, 1, 2),
        )
        assert arrival_trace(**kwargs) == arrival_trace(**kwargs)

    def test_different_seed_different_trace(self):
        a = arrival_trace(seed=1, rate_per_s=2.0, horizon_s=120.0)
        b = arrival_trace(seed=2, rate_per_s=2.0, horizon_s=120.0)
        assert a != b

    def test_events_are_value_objects(self):
        trace = arrival_trace(seed=3, rate_per_s=1.0, horizon_s=60.0)
        assert hash(trace) == hash(
            arrival_trace(seed=3, rate_per_s=1.0, horizon_s=60.0)
        )


class TestShape:
    def test_arrivals_sorted_and_within_horizon(self):
        trace = arrival_trace(seed=5, rate_per_s=4.0, horizon_s=100.0)
        times = [e.arrival_s for e in trace]
        assert times == sorted(times)
        assert all(0.0 < t < 100.0 for t in times)

    def test_request_ids_are_sequential(self):
        trace = arrival_trace(seed=5, rate_per_s=4.0, horizon_s=100.0)
        assert [e.request_id for e in trace] == list(range(len(trace)))

    def test_offered_rate_near_nominal(self):
        trace = arrival_trace(seed=13, rate_per_s=5.0, horizon_s=1000.0)
        assert trace.offered_rate_per_s() == pytest.approx(5.0, rel=0.15)

    def test_durations_bounded(self):
        trace = arrival_trace(
            seed=17,
            rate_per_s=3.0,
            horizon_s=500.0,
            duration_process="pareto",
            duration_bounds_s=(2.0, 30.0),
        )
        assert all(2.0 <= e.duration_s <= 30.0 for e in trace)

    def test_departure_is_arrival_plus_duration(self):
        trace = arrival_trace(seed=19, rate_per_s=1.0, horizon_s=50.0)
        for event in trace:
            assert event.departure_s == pytest.approx(
                event.arrival_s + event.duration_s
            )

    def test_graph_index_and_priority_drawn_from_choices(self):
        trace = arrival_trace(
            seed=23,
            rate_per_s=5.0,
            horizon_s=200.0,
            graph_count=2,
            priorities=(1, 5),
        )
        assert {e.graph_index for e in trace} <= {0, 1}
        assert {e.priority for e in trace} <= {1, 5}

    def test_pareto_interarrivals_burstier_than_poisson(self):
        poisson = arrival_trace(seed=29, rate_per_s=2.0, horizon_s=2000.0)
        pareto = arrival_trace(
            seed=29,
            rate_per_s=2.0,
            horizon_s=2000.0,
            arrival_process="pareto",
            pareto_alpha=1.5,
        )

        def max_gap(trace):
            times = [0.0] + [e.arrival_s for e in trace]
            return max(b - a for a, b in zip(times, times[1:]))

        assert max_gap(pareto) > max_gap(poisson)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rate_per_s": 0.0},
            {"horizon_s": 0.0},
            {"mean_duration_s": 0.0},
            {"duration_bounds_s": (5.0, 1.0)},
            {"rate_per_s": float("nan")},
            {"rate_per_s": float("inf")},
            {"horizon_s": float("nan")},
            {"horizon_s": float("inf")},
            {"mean_duration_s": float("nan")},
            {"duration_bounds_s": (float("nan"), 600.0)},
            {"duration_bounds_s": (1.0, float("inf"))},
            {"pareto_alpha": float("nan")},
            {"pareto_alpha": 1.0},
            {"graph_count": 0},
            {"priorities": ()},
            {"arrival_process": "uniform"},
            {"duration_process": "uniform"},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        base = dict(seed=1, rate_per_s=1.0, horizon_s=10.0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            arrival_trace(**base)
