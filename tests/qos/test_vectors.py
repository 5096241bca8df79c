"""Unit tests for QoS vectors and the satisfy relation (Equation 1)."""

from repro.qos.parameters import RangeValue, SingleValue
from repro.qos.vectors import (
    QoSVector,
    consistency_gaps,
    satisfies,
    unsatisfied_parameters,
)


class TestQoSVectorBasics:
    def test_construction_coerces_values(self):
        vector = QoSVector(format="MPEG", frame_rate=(10, 30))
        assert vector["format"] == SingleValue("MPEG")
        assert vector["frame_rate"] == RangeValue(10, 30)

    def test_dimension_matches_paper_dim(self):
        assert QoSVector(a=1, b=2, c=3).dimension == 3

    def test_mapping_protocol(self):
        vector = QoSVector(x=1)
        assert "x" in vector
        assert vector.get("missing") is None
        assert len(vector) == 1

    def test_equality_and_hash(self):
        assert QoSVector(a=1, b="x") == QoSVector(b="x", a=1)
        assert hash(QoSVector(a=1)) == hash(QoSVector(a=1))

    def test_replace_returns_new_vector(self):
        original = QoSVector(format="MPEG")
        changed = original.replace(format="WAV", frame_rate=25)
        assert original["format"] == SingleValue("MPEG")
        assert changed["format"] == SingleValue("WAV")
        assert changed["frame_rate"] == SingleValue(25)

    def test_without_removes_parameters(self):
        vector = QoSVector(a=1, b=2).without("a")
        assert "a" not in vector and "b" in vector

    def test_merge_other_wins(self):
        merged = QoSVector(a=1, b=2).merge(QoSVector(b=3, c=4))
        assert merged["b"] == SingleValue(3)
        assert merged.dimension == 3


class TestSatisfyRelation:
    def test_exact_match_satisfies(self):
        out = QoSVector(format="MPEG", frame_rate=25)
        requirement = QoSVector(format="MPEG", frame_rate=25)
        assert satisfies(out, requirement)

    def test_range_requirement_admits_inner_value(self):
        assert satisfies(
            QoSVector(frame_rate=25), QoSVector(frame_rate=(10, 30))
        )

    def test_single_requirement_needs_equality(self):
        assert not satisfies(QoSVector(format="MPEG"), QoSVector(format="WAV"))

    def test_missing_parameter_violates(self):
        assert not satisfies(QoSVector(), QoSVector(format="MPEG"))

    def test_extra_output_parameters_are_ignored(self):
        out = QoSVector(format="MPEG", resolution=(100.0, 200.0), extra="x")
        assert satisfies(out, QoSVector(format="MPEG"))

    def test_empty_requirement_always_satisfied(self):
        assert satisfies(QoSVector(), QoSVector())
        assert satisfies(QoSVector(a=1), QoSVector())

    def test_asymmetry(self):
        # A ⪯ B does not imply B ⪯ A: a concrete rate satisfies a range
        # requirement, but a range offer does not satisfy an equal single.
        narrow = QoSVector(frame_rate=25)
        wide = QoSVector(frame_rate=(10, 30))
        assert satisfies(narrow, wide)
        assert not satisfies(wide, narrow)


class TestViolationReporting:
    def test_unsatisfied_names(self):
        out = QoSVector(format="MPEG", frame_rate=60)
        requirement = QoSVector(format="WAV", frame_rate=(10, 30), color="rgb")
        violated = unsatisfied_parameters(out, requirement)
        assert sorted(violated) == ["color", "format", "frame_rate"]

    def test_gaps_carry_offered_and_required(self):
        out = QoSVector(format="MPEG")
        requirement = QoSVector(format="WAV", frame_rate=(10, 30))
        gaps = dict(
            (name, (offered, required))
            for name, offered, required in consistency_gaps(out, requirement)
        )
        assert gaps["format"] == (SingleValue("MPEG"), SingleValue("WAV"))
        assert gaps["frame_rate"] == (None, RangeValue(10, 30))

    def test_no_gaps_when_consistent(self):
        assert consistency_gaps(QoSVector(a=1), QoSVector(a=1)) == []
