"""Property-based tests for the QoS value algebra."""

from hypothesis import given, strategies as st

from repro.qos.parameters import (
    Preference,
    RangeValue,
    SetValue,
    SingleValue,
    intersection,
    pick_best,
)
from repro.qos.vectors import QoSVector, satisfies, unsatisfied_parameters

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def ranges(draw):
    low = draw(finite)
    high = draw(finite.filter(lambda x: x >= low))
    return RangeValue(low, high)


@st.composite
def singles(draw):
    return SingleValue(draw(st.one_of(finite, st.text(max_size=6))))


@st.composite
def numeric_sets(draw):
    options = draw(st.sets(finite, min_size=1, max_size=5))
    return SetValue(options)


qos_values = st.one_of(singles(), ranges(), numeric_sets())


class TestContainment:
    @given(ranges())
    def test_range_contains_itself(self, r):
        assert r.contains(r)

    @given(ranges(), finite)
    def test_range_membership_consistent_with_bounds(self, r, x):
        assert r.contains(SingleValue(x)) == (r.low <= x <= r.high)

    @given(qos_values)
    def test_containment_reflexive_for_all_types(self, value):
        assert value.contains(value)

    @given(ranges(), ranges(), ranges())
    def test_range_containment_transitive(self, a, b, c):
        if a.contains(b) and b.contains(c):
            assert a.contains(c)


class TestIntersection:
    @given(qos_values, qos_values)
    def test_intersection_symmetric_in_admission(self, a, b):
        left = intersection(a, b)
        right = intersection(b, a)
        assert (left is None) == (right is None)

    @given(ranges(), ranges())
    def test_range_intersection_contained_in_both(self, a, b):
        result = intersection(a, b)
        if result is not None:
            assert a.contains(result)
            assert b.contains(result)

    @given(qos_values, qos_values)
    def test_intersection_value_admitted_by_both(self, a, b):
        result = intersection(a, b)
        if result is not None:
            best = pick_best(result)
            assert a.contains(best) or a.contains(result)
            assert b.contains(best) or b.contains(result)


class TestPickBest:
    @given(qos_values)
    def test_best_is_admitted(self, value):
        assert value.contains(pick_best(value))

    @given(ranges())
    def test_preference_direction(self, r):
        high = pick_best(r, Preference.HIGHER)
        low = pick_best(r, Preference.LOWER)
        assert high.value >= low.value


class TestSatisfyRelation:
    @given(st.dictionaries(st.text(min_size=1, max_size=4), qos_values, max_size=4))
    def test_vector_satisfies_itself_when_concrete(self, params):
        vector = QoSVector(params)
        # Reflexivity holds whenever containment is reflexive (always).
        assert satisfies(vector, vector)

    @given(
        st.dictionaries(st.text(min_size=1, max_size=4), qos_values, max_size=4),
        st.dictionaries(st.text(min_size=1, max_size=4), qos_values, max_size=4),
    )
    def test_merging_requirements_only_adds_violations(self, out_params, extra):
        out = QoSVector(out_params)
        requirement = QoSVector(out_params)
        merged = requirement.merge(QoSVector(extra))
        base_violations = set(unsatisfied_parameters(out, requirement))
        merged_violations = set(unsatisfied_parameters(out, merged))
        assert base_violations <= merged_violations

    @given(st.dictionaries(st.text(min_size=1, max_size=4), qos_values, max_size=4))
    def test_empty_requirement_always_satisfied(self, params):
        assert satisfies(QoSVector(params), QoSVector())
