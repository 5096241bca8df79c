"""Tests for the Figure 5 success-rate experiment (reduced trace)."""

import pytest

from repro.experiments.figure5 import (
    Figure5Result,
    SuccessSeries,
    paper_bandwidths,
    paper_devices,
    run_figure5,
)
from repro.workloads.requests import figure5_trace


@pytest.fixture(scope="module")
def result():
    trace = figure5_trace(request_count=400, horizon_h=80.0)
    return run_figure5(trace=trace, window_h=20.0)


class TestSetup:
    def test_paper_device_vectors(self):
        devices = {d.device_id: d for d in paper_devices()}
        assert devices["desktop"].available["memory"] == 256.0
        assert devices["laptop"].available["memory"] == 128.0
        assert devices["pda"].available["cpu"] == 0.5

    def test_paper_bandwidths(self):
        bw = paper_bandwidths()
        assert bw[("desktop", "laptop")] == 50.0
        assert bw[("desktop", "pda")] == 5.0
        assert bw[("laptop", "pda")] == 5.0


class TestOutcome:
    def test_paper_ordering_holds(self, result):
        assert result.ordering_holds()

    def test_heuristic_stays_high(self, result):
        assert result.series["heuristic"].overall_rate >= 0.8

    def test_fixed_clearly_worst(self, result):
        fixed = result.series["fixed"].overall_rate
        heuristic = result.series["heuristic"].overall_rate
        assert heuristic - fixed >= 0.2

    def test_sampling_grid(self, result):
        series = result.series["heuristic"]
        assert series.sample_times_h == [20.0, 40.0, 60.0, 80.0]
        assert len(series.success_rates) == 4

    def test_rates_are_fractions(self, result):
        for series in result.series.values():
            assert all(0.0 <= r <= 1.0 for r in series.success_rates)

    def test_attempt_accounting(self, result):
        for series in result.series.values():
            assert series.total_attempts == 400
            assert series.total_successes <= series.total_attempts

    def test_series_renders(self, result):
        text = result.format_series()
        assert "heuristic" in text and "fixed" in text and "time (hr)" in text
        assert "failure causes" in text

    def test_failure_causes_tallied(self, result):
        # Fixed fails the most; its failures must carry cause tallies that
        # sum to at least the failure count (several causes may co-occur).
        fixed = result.series["fixed"]
        failures = fixed.total_attempts - fixed.total_successes
        assert failures > 0
        assert sum(fixed.failure_causes.values()) >= failures


class TestFailureCauseOrder:
    @staticmethod
    def _render(causes):
        series = SuccessSeries(
            name="heuristic",
            sample_times_h=[10.0],
            success_rates=[0.5],
            failure_causes=causes,
        )
        return Figure5Result(
            series={"heuristic": series},
            request_count=2,
            horizon_h=10.0,
            window_h=10.0,
        ).format_series()

    def test_tied_counts_print_in_name_order(self):
        # Tallies fill in set-iteration order, which follows the string
        # hash seed; the rendering must not.
        forward = {"resource:cpu": 3, "resource:memory": 3, "bandwidth": 5}
        backward = dict(reversed(list(forward.items())))
        assert self._render(forward) == self._render(backward)
        assert (
            "heuristic: bandwidth=5, resource:cpu=3, resource:memory=3"
            in self._render(backward)
        )
