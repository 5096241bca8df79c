"""Unit tests for resource vectors (Definitions 3.1 and 3.2)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.resources.vectors import ResourceVector, weighted_magnitude


class TestConstruction:
    def test_amounts_coerced_to_float(self):
        vector = ResourceVector(memory=64)
        assert vector["memory"] == 64.0

    def test_negative_amount_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(memory=-1)

    def test_empty_vector_is_zero(self):
        assert ResourceVector().is_zero()

    def test_mapping_protocol(self):
        vector = ResourceVector(cpu=0.5)
        assert "cpu" in vector
        assert vector.get("memory", 0.0) == 0.0

    @pytest.mark.parametrize("amount", [float("nan"), float("inf")])
    def test_non_finite_amount_rejected(self, amount):
        with pytest.raises(ValueError, match="finite"):
            ResourceVector(cpu=amount)
        with pytest.raises(ValueError, match="finite"):
            ResourceVector({"memory": amount})

    def test_negative_infinity_rejected_as_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            ResourceVector(memory=float("-inf"))

    def test_mapping_views_match_the_amounts(self):
        vector = ResourceVector(memory=8, cpu=0.5)
        assert list(vector.keys()) == ["memory", "cpu"]
        assert list(vector.values()) == [8.0, 0.5]
        assert list(vector.items()) == [("memory", 8.0), ("cpu", 0.5)]
        assert dict(vector) == {"memory": 8.0, "cpu": 0.5}
        assert vector.get("gpu") is None


class TestAddition:
    def test_definition_3_1(self):
        a = ResourceVector(memory=10, cpu=0.1)
        b = ResourceVector(memory=5, cpu=0.2)
        total = a + b
        assert total["memory"] == 15
        assert total["cpu"] == pytest.approx(0.3)

    def test_addition_over_union_of_names(self):
        a = ResourceVector(memory=10)
        b = ResourceVector(cpu=0.5)
        total = a + b
        assert total["memory"] == 10 and total["cpu"] == 0.5

    def test_sum_of_many(self):
        vectors = [ResourceVector(memory=1) for _ in range(5)]
        assert ResourceVector.sum(vectors) == ResourceVector(memory=5)

    def test_sum_of_none(self):
        assert ResourceVector.sum([]) == ResourceVector()


class TestKeyOrder:
    def test_left_names_then_the_right_names_it_lacks(self):
        a = ResourceVector(memory=1, cpu=2)
        b = ResourceVector(gpu=3, memory=4)
        assert list(a + b) == ["memory", "cpu", "gpu"]
        assert list(a - b) == ["memory", "cpu", "gpu"]
        assert list(b + a) == ["gpu", "memory", "cpu"]
        assert list(ResourceVector.sum([b, a])) == ["gpu", "memory", "cpu"]

    def test_three_name_sum_is_independent_of_the_hash_seed(self):
        # Key order fixes the order weighted_magnitude sums in, and with
        # three names that order changes the float. It must not follow
        # string hashing, which PYTHONHASHSEED varies between processes.
        code = (
            "from repro.resources.vectors import ResourceVector as RV, "
            "weighted_magnitude\n"
            "print(repr(weighted_magnitude("
            "RV(memory=1) + RV(cpu=1e16) + RV(battery=1))))"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        outputs = [
            subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                timeout=60,
                check=True,
            ).stdout
            for seed in ("0", "1")
        ]
        # memory, cpu, battery: (0 + 1 + 1e16) + 1 rounds to 1e16 twice.
        assert outputs == ["1e+16\n", "1e+16\n"]


class TestSubtraction:
    def test_plain_difference(self):
        result = ResourceVector(memory=10) - ResourceVector(memory=4)
        assert result["memory"] == 6

    def test_clamped_at_zero(self):
        result = ResourceVector(memory=4) - ResourceVector(memory=10)
        assert result["memory"] == 0.0

    def test_add_sub_roundtrip_without_clamping(self):
        base = ResourceVector(memory=10, cpu=1.0)
        load = ResourceVector(memory=3, cpu=0.4)
        assert (base - load) + load == base


class TestScaling:
    def test_scalar_multiplication(self):
        assert 2 * ResourceVector(memory=3) == ResourceVector(memory=6)

    def test_negative_scale_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(memory=1) * -1

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_scale_rejected(self, factor):
        with pytest.raises(ValueError):
            ResourceVector(memory=1) * factor

    def test_scaled_by_named_factors(self):
        vector = ResourceVector(memory=32, cpu=1.0)
        scaled = vector.scaled({"cpu": 0.4})
        assert scaled["memory"] == 32 and scaled["cpu"] == 0.4


class TestFitsWithin:
    def test_definition_3_2(self):
        requirement = ResourceVector(memory=16, cpu=0.2)
        availability = ResourceVector(memory=32, cpu=0.5)
        assert requirement.fits_within(availability)

    def test_any_violated_component_fails(self):
        requirement = ResourceVector(memory=16, cpu=0.9)
        availability = ResourceVector(memory=32, cpu=0.5)
        assert not requirement.fits_within(availability)

    def test_missing_availability_name_fails_positive_requirement(self):
        assert not ResourceVector(gpu=1.0).fits_within(ResourceVector(memory=32))

    def test_zero_requirement_fits_anything(self):
        assert ResourceVector().fits_within(ResourceVector())

    def test_equality_boundary_fits(self):
        assert ResourceVector(memory=32).fits_within(ResourceVector(memory=32))

    def test_nan_cannot_reach_the_fit_check(self):
        # A NaN requirement would compare False against every bound and so
        # fit any device; a NaN capacity would accept any load. Neither can
        # be built, so the ledger and audit() agree on every fit.
        with pytest.raises(ValueError):
            ResourceVector(cpu=float("nan")).fits_within(ResourceVector(cpu=1))
        with pytest.raises(ValueError):
            ResourceVector(cpu=5).fits_within(ResourceVector(cpu=float("nan")))

    def test_dominates_is_inverse(self):
        big = ResourceVector(memory=32, cpu=1.0)
        small = ResourceVector(memory=16)
        assert big.dominates(small)
        assert not small.dominates(big)


class TestEquality:
    def test_zero_components_do_not_distinguish(self):
        assert ResourceVector(memory=10, cpu=0) == ResourceVector(memory=10)

    def test_hash_consistent_with_eq(self):
        assert hash(ResourceVector(memory=10, cpu=0)) == hash(
            ResourceVector(memory=10)
        )


class TestForeignOperands:
    @pytest.mark.parametrize(
        "operation",
        [
            lambda v: v + 1.0,
            lambda v: v - {"memory": 1.0},
            lambda v: v * "2",
        ],
        ids=["add-number", "subtract-mapping", "scale-by-string"],
    )
    def test_arithmetic_with_foreign_types_raises(self, operation):
        with pytest.raises(TypeError):
            operation(ResourceVector(memory=10.0))

    def test_not_equal_to_a_plain_mapping(self):
        vector = ResourceVector(memory=10.0)
        assert vector != {"memory": 10.0}
        assert vector != 10.0


class TestWeightedMagnitude:
    def test_unweighted_sums_all(self):
        assert weighted_magnitude(ResourceVector(memory=3, cpu=2)) == 5

    def test_weighted_sum(self):
        value = weighted_magnitude(
            ResourceVector(memory=10, cpu=2), {"memory": 0.5, "cpu": 1.0}
        )
        assert value == pytest.approx(7.0)

    def test_unknown_names_count_zero_when_weighted(self):
        assert weighted_magnitude(ResourceVector(gpu=5), {"memory": 1.0}) == 0.0
