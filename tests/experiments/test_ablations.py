"""Tests for the ablation drivers (reduced budgets)."""

from repro.experiments.ablations import (
    ablate_corrections,
    ablate_local_search,
    ablate_neighbor_preference,
    ablate_random_attempts,
    ablate_weights,
)


class TestNeighborAblation:
    def test_rows_present_and_bounded(self):
        result = ablate_neighbor_preference(case_count=15)
        assert {row.name for row in result.rows} == {
            "with-neighbors",
            "without-neighbors",
        }
        for row in result.rows:
            assert 0.0 <= row.metrics["avg_ratio"] <= 1.0


class TestRandomBudgetAblation:
    def test_more_attempts_never_hurt_feasibility(self):
        result = ablate_random_attempts(case_count=15, budgets=(1, 10, 40))
        feasible = [row.metrics["feasible_frac"] for row in result.rows]
        assert feasible == sorted(feasible)


class TestWeightsAblation:
    def test_all_settings_evaluated(self):
        result = ablate_weights(case_count=10)
        names = {row.name for row in result.rows}
        assert names == {"memory-heavy", "cpu-heavy", "network-heavy", "balanced"}
        for row in result.rows:
            assert row.metrics["cases"] > 0


class TestLocalSearchAblation:
    def test_refinement_never_hurts(self):
        result = ablate_local_search(case_count=12)
        base = result.row("heuristic-only").metrics["avg_ratio"]
        relocations = result.row("plus-relocations").metrics["avg_ratio"]
        swaps = result.row("plus-swaps").metrics["avg_ratio"]
        assert base <= relocations + 1e-9
        assert relocations <= swaps + 1e-9


class TestCorrectionsAblation:
    def test_transcoder_is_load_bearing(self):
        result = ablate_corrections()
        assert result.row("all-corrections").metrics["success"] == 1.0
        assert result.row("no-transcoder").metrics["success"] == 0.0
        assert result.row("no-corrections").metrics["success"] == 0.0

    def test_unused_mechanisms_harmless(self):
        result = ablate_corrections()
        assert result.row("no-adjust").metrics["success"] == 1.0
        assert result.row("no-buffer").metrics["success"] == 1.0

    def test_render(self):
        assert "variant" in ablate_corrections().format_table()
