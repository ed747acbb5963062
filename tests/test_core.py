from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rankpair import (
    LevelFunction,
    RankOneSpec,
    StageSpec,
    validate_spec,
)
from rankpair.core import occurrence_set

from conftest import tower_labels


def stage_strategy(max_cuts=3, max_spacer=3):
    return st.integers(2, max_cuts).flatmap(
        lambda r: st.tuples(
            st.just(r),
            st.tuples(*[st.integers(0, max_spacer)] * r),
        )
    ).map(lambda t: StageSpec(cuts=t[0], spacers=t[1]))


def spec_strategy(max_stages=4):
    return st.lists(stage_strategy(), min_size=1, max_size=max_stages).map(
        lambda stages: RankOneSpec(stages=tuple(stages))
    )


class TestStageSpec:
    def test_issues_flags_bad_stages(self):
        assert StageSpec(1, (0,)).issues()
        assert StageSpec(2, (0,)).issues()
        assert StageSpec(2, (0, -1)).issues()
        assert not StageSpec(2, (0, 5)).issues()

    def test_offsets(self):
        assert StageSpec(3, (1, 0, 2)).offsets(4) == [0, 5, 9]


class TestRankOneSpec:
    def test_height_width_recursion(self, small_spec):
        assert small_spec.heights() == [1, 3, 12]
        assert small_spec.widths() == [1, Fraction(1, 2), Fraction(1, 6)]

    @given(spec_strategy())
    def test_height_matches_label_construction(self, spec):
        assert len(tower_labels(spec, 1)) == spec.heights()[-1]


class TestValidateSpec:
    def test_valid(self, small_spec):
        assert validate_spec(small_spec) == []

    def test_invalid_reports_instead_of_raising(self):
        bad = RankOneSpec(stages=(StageSpec(2, (0, 0, 0)),))
        issues = validate_spec(bad)
        assert issues
        assert "stage 1" in issues[0]


class TestOccurrenceSet:
    def test_known_positions(self, small_spec):
        assert occurrence_set(small_spec, 1, 2) == (0, 2)
        # copies of the depth-2 tower start at 0, 3, 8
        assert occurrence_set(small_spec, 1, 3) == (0, 2, 3, 5, 8, 10)

    @given(spec_strategy())
    def test_matches_label_scan(self, spec):
        labels = tower_labels(spec, 1)
        occ = occurrence_set(spec, 1, spec.max_depth)
        assert list(occ) == [
            q for q, lab in enumerate(labels) if lab == 0
        ]

    @given(spec_strategy())
    def test_measure_is_conserved(self, spec):
        # cutting never destroys the base level's mass
        occ = occurrence_set(spec, 1, spec.max_depth)
        assert len(occ) * spec.widths()[-1] == spec.widths()[0]

    def test_index_checks(self, small_spec):
        with pytest.raises(IndexError):
            occurrence_set(small_spec, 2, 1)
        with pytest.raises(IndexError):
            occurrence_set(small_spec, 1, 4)


class TestLevelFunction:
    def test_norm(self, small_spec):
        f = LevelFunction.from_dict(
            2, {0: Fraction(1), 1: Fraction(-1, 2)}
        )
        assert f.norm_sq(small_spec) == Fraction(5, 8)

    def test_zero_coefficients_dropped(self):
        f = LevelFunction.from_dict(1, {0: Fraction(0), 1: Fraction(2)})
        assert f.coefficients == ((1, Fraction(2)),)

    def test_issues(self, small_spec):
        assert LevelFunction.from_dict(2, {5: Fraction(1)}).issues(small_spec)
        assert not LevelFunction.indicator(2).issues(small_spec)
        # a stage outside the spec is named before any level is looked up
        for stage in (0, -1, small_spec.max_depth + 1):
            assert LevelFunction.indicator(stage).issues(small_spec) == [
                f"stage {stage} outside [1, {small_spec.max_depth}]"]


class TestRecords:
    """The record classes behave as the codec, the planner and the CLI
    expect: frozen ones are immutable hashable values, mutable ones are
    unhashable, and construction checks its arguments."""

    def test_frozen_record_refuses_assignment_and_deletion(self):
        stage = StageSpec(2, (1, 1))
        with pytest.raises(AttributeError):
            stage.cuts = 3
        with pytest.raises(AttributeError):
            del stage.spacers
        assert stage == StageSpec(2, (1, 1))

    def test_hashing(self):
        from rankpair.correlation import CorrelationSequence

        assert hash(StageSpec(2, (1, 1))) == hash(StageSpec(2, (1, 1)))
        assert len({StageSpec(2, (1, 1)), StageSpec(2, (1, 1)), StageSpec(2, (0, 1))}) == 2
        with pytest.raises(TypeError):
            hash(CorrelationSequence(entries={}, norm_sq=Fraction(1)))

    def test_equality_needs_the_same_class(self):
        from rankpair.pairplan import PolynomialSpec
        from rankpair.walsh import WalshPolynomial

        terms = ((0, Fraction(1)),)
        assert PolynomialSpec(terms) == PolynomialSpec(terms)
        assert PolynomialSpec(terms) != WalshPolynomial(terms)

    def test_default_factory_gives_each_record_its_own_list(self):
        from rankpair.pairplan import ConstructionCertificate

        a = ConstructionCertificate("a", LevelFunction.indicator(1))
        b = ConstructionCertificate("b", LevelFunction.indicator(1))
        a.skipped_budgets.append((1, 2))
        a.unverified_notes.append("extra")
        assert b.skipped_budgets == []
        assert len(b.unverified_notes) == 1
        assert a.zero_intervals is not b.zero_intervals

    def test_fields_bind_by_position_in_declaration_order(self):
        stages = (StageSpec(2, (1, 1)),)
        assert RankOneSpec(stages=stages).base_height == 1
        assert RankOneSpec(3, stages) == RankOneSpec(base_height=3, stages=stages)
        # a required field after a defaulted one is still required
        with pytest.raises(TypeError):
            RankOneSpec(stages)

    def test_post_init_runs(self):
        from rankpair.suspension import SimulationConfig

        with pytest.raises(ValueError, match="sample_count"):
            SimulationConfig(sample_count=0)
        assert SimulationConfig(sample_count=5).seed == 0

    def test_repr_lists_every_field_in_declaration_order(self):
        from rankpair.correlation import CorrelationSequence
        from rankpair.suspension import GaussianSample, SimulationConfig, gaussian_sample

        white = CorrelationSequence(
            entries={0: (Fraction(1), Fraction(1)), 1: (Fraction(0), Fraction(0))},
            norm_sq=Fraction(1))
        text = repr(gaussian_sample(white, 2, SimulationConfig(sample_count=4)))
        names = [f.name for f in GaussianSample.__record_fields__]
        assert names == ["paths", "repaired", "sampler", "embedding_min", "lagged",
                         "blocks", "workers"]
        assert text.startswith("GaussianSample(paths=")
        places = [text.index(f"{name}=") for name in names]
        assert places == sorted(places)
        assert "sampler='circulant'" in text
        assert repr(StageSpec(2, (1, 1))) == "StageSpec(cuts=2, spacers=(1, 1))"

    @pytest.mark.parametrize("args, kwargs", [
        ((2,), {}),                                 # missing
        ((2, (1, 1)), {"cuts": 2}),                 # duplicated
        ((2, (1, 1)), {"width": 1}),                # unknown
        ((2, (1, 1), 3), {}),                       # one positional too many
    ], ids=["missing", "duplicated", "unknown", "extra"])
    def test_bad_arguments_raise_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            StageSpec(*args, **kwargs)
