"""Property-based tests for resource-vector algebra."""

import pytest
from hypothesis import given, strategies as st

from repro.domain.device import Device
from repro.resources.vectors import ResourceVector, weighted_magnitude

amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
names = st.sampled_from(["memory", "cpu", "disk", "gpu"])
vectors = st.dictionaries(names, amounts, max_size=4).map(ResourceVector)


class TestAdditionAlgebra:
    @given(vectors, vectors)
    def test_addition_commutative(self, a, b):
        assert a + b == b + a

    @given(vectors, vectors, vectors)
    def test_addition_associative_approximately(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        for name in set(left.names()) | set(right.names()):
            assert left.get(name, 0.0) == pytest.approx(right.get(name, 0.0))

    @given(vectors)
    def test_zero_is_identity(self, a):
        assert a + ResourceVector() == a

    @given(vectors, vectors)
    def test_sum_dominates_parts(self, a, b):
        total = a + b
        assert a.fits_within(total)
        assert b.fits_within(total)


class TestFitsWithinOrder:
    @given(vectors)
    def test_reflexive(self, a):
        assert a.fits_within(a)

    @given(vectors, vectors, vectors)
    def test_transitive(self, a, b, c):
        if a.fits_within(b) and b.fits_within(c):
            assert a.fits_within(c)

    @given(vectors, vectors)
    def test_addition_monotone(self, a, b):
        # Adding demand never makes a vector fit where it did not.
        combined = a + b
        big = ResourceVector({name: 1e7 for name in combined.names()})
        assert combined.fits_within(big)
        if not a.fits_within(b + a):
            raise AssertionError("a must fit within a + b")

    @given(vectors, vectors)
    def test_subtraction_result_fits_original(self, a, b):
        assert (a - b).fits_within(a)


class TestWeightedMagnitude:
    @given(vectors, vectors)
    def test_additive_over_vectors(self, a, b):
        weights = {"memory": 0.5, "cpu": 0.3, "disk": 0.1, "gpu": 0.1}
        assert weighted_magnitude(a + b, weights) == pytest.approx(
            weighted_magnitude(a, weights) + weighted_magnitude(b, weights)
        )

    @given(vectors)
    def test_non_negative(self, a):
        assert weighted_magnitude(a) >= 0.0


# -- bit-identity against the validating arithmetic ----------------------------
#
# Reference copy of the arithmetic as it was when every result went back
# through the validating constructor and read its operands through the
# Mapping ABC. The fast paths must agree with it exactly: same floats (no
# approx) and the same key order, since key order fixes every summation
# order downstream. The order is the documented one: the left operand's
# names, then the right operand's names the left lacks (never a set's
# hash order).


def _names(a, b):
    return list(a) + [n for n in b if n not in a]


def _reference_add(a, b):
    return ResourceVector({n: a.get(n, 0.0) + b.get(n, 0.0) for n in _names(a, b)})


def _reference_sub(a, b):
    return ResourceVector(
        {n: max(0.0, a.get(n, 0.0) - b.get(n, 0.0)) for n in _names(a, b)}
    )


def _reference_fits_within(requirement, availability):
    for name, required in requirement.items():
        if required > 0 and required > availability.get(name, 0.0):
            return False
    return True


def _reference_weighted_magnitude(vector, weights=None):
    if weights is None:
        return sum(vector.values())
    return sum(weights.get(name, 0.0) * amount for name, amount in vector.items())


def _exact(vector):
    """Key order and float bit patterns, for exact comparison."""
    return [(name, amount.hex()) for name, amount in dict(vector).items()]


weights = st.dictionaries(names, st.floats(min_value=0.0, max_value=10.0), max_size=4)


class TestFastArithmeticBitIdentity:
    @given(vectors, vectors)
    def test_add(self, a, b):
        assert _exact(a + b) == _exact(_reference_add(a, b))

    @given(vectors, vectors)
    def test_sub(self, a, b):
        assert _exact(a - b) == _exact(_reference_sub(a, b))

    @given(vectors, vectors)
    def test_fits_within(self, a, b):
        assert a.fits_within(b) == _reference_fits_within(a, b)
        assert a.fits_within(a + b) == _reference_fits_within(a, _reference_add(a, b))

    @given(vectors, vectors, weights)
    def test_weighted_magnitude(self, a, b, w):
        total = a + b
        for got, want in (
            (weighted_magnitude(total), _reference_weighted_magnitude(total)),
            (weighted_magnitude(total, w), _reference_weighted_magnitude(total, w)),
        ):
            assert (type(got), float(got).hex()) == (type(want), float(want).hex())

    @given(st.lists(vectors, max_size=6))
    def test_chained_sums(self, parts):
        fast = reference = ResourceVector()
        for part in parts:
            fast = fast + part
            reference = _reference_add(reference, part)
        assert _exact(fast) == _exact(reference)
        assert _exact(ResourceVector.sum(parts)) == _exact(reference)


class TestDeviceDrainsToZero:
    @given(
        st.lists(
            st.dictionaries(
                names, st.floats(min_value=0.0, max_value=8.0), max_size=4
            ).map(ResourceVector),
            min_size=1,
            max_size=8,
        ),
        st.randoms(use_true_random=False),
    )
    def test_allocate_release_sequence_drains_exactly(self, loads, rng):
        capacity = ResourceVector(memory=100.0, cpu=100.0, disk=100.0, gpu=100.0)
        device = Device("dev", capacity=capacity)
        allocations = [device.allocate(load) for load in loads]
        rng.shuffle(allocations)
        for index, allocation in enumerate(allocations):
            device.release(allocation)
            live = allocations[index + 1:]
            expected = ResourceVector()
            first_seen = []
            for remaining in device.active_allocations():
                expected = _reference_add(expected, remaining.resources)
                first_seen += [n for n in remaining.resources if n not in first_seen]
            assert _exact(device.allocated) == _exact(expected)
            # Names keep the order in which live allocations first hold them.
            assert list(device.allocated) == first_seen
            assert len(device.active_allocations()) == len(live)
        assert all(amount == 0.0 for amount in device.allocated.values())
        assert device.allocated.is_zero()
        assert device.available() == capacity
