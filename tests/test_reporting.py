"""Unit tests for the plain-text reporting helpers."""

import pytest

from repro.reporting import render_overhead_bars, render_success_series


class TestRenderOverheadBars:
    def rows(self):
        return [
            {
                "composition_ms": 20.0,
                "distribution_ms": 10.0,
                "download_ms": 0.0,
                "init_or_handoff_ms": 70.0,
                "total_ms": 100.0,
            },
            {
                "composition_ms": 50.0,
                "distribution_ms": 10.0,
                "download_ms": 1400.0,
                "init_or_handoff_ms": 140.0,
                "total_ms": 1600.0,
            },
        ]

    def test_bars_scaled_to_largest(self):
        text = render_overhead_bars(self.rows(), ["e1", "e2"], width=40)
        lines = text.splitlines()
        assert lines[0].startswith("e1")
        # The bigger bar has (many) more filled cells than the smaller.
        assert lines[1].count("D") > 10
        assert "legend" in lines[-1]

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            render_overhead_bars(self.rows(), ["only-one"])

    def test_empty_rows(self):
        assert render_overhead_bars([], []) == "(no rows)"


class TestRenderSuccessSeries:
    def test_letters_plotted(self):
        text = render_success_series(
            [10.0, 20.0],
            {"heuristic": [0.9, 1.0], "fixed": [0.3, 0.2]},
        )
        assert "H" in text and "F" in text
        assert "heuristic=H" in text

    def test_empty(self):
        assert render_success_series([], {}) == "(no samples)"
