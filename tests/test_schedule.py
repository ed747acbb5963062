from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankpair import generate_schedule, validate_schedule
from rankpair.schedule import IntervalSchedule, ScheduleBlock


class TestGenerate:
    def test_small_horizon(self):
        sched = generate_schedule(growth=3, horizon=50)
        issues = validate_schedule(sched)
        assert not issues, issues

    def test_horizon_one(self):
        sched = generate_schedule(growth=3, horizon=1)
        assert not validate_schedule(sched)

    def test_growth_must_grow(self):
        with pytest.raises(ValueError):
            generate_schedule(growth=1, horizon=10)

    @given(
        st.fractions(min_value=2, max_value=10, max_denominator=4),
        st.integers(1, 3000),
    )
    @settings(max_examples=80, deadline=None)
    def test_generated_schedules_always_validate(self, growth, horizon):
        issues = validate_schedule(generate_schedule(growth, horizon))
        assert not issues, issues


class TestValidate:
    def base(self):
        return generate_schedule(growth=4, horizon=200)

    def test_coverage_gap_detected(self):
        sched = self.base()
        blocks = list(sched.blocks)
        b = blocks[-1]
        blocks[-1] = ScheduleBlock(
            i=(b.i[0], b.i[0]), j=b.j, i_tilde=b.i_tilde, j_tilde=b.j_tilde
        )
        issues = validate_schedule(IntervalSchedule(horizon=sched.horizon, blocks=tuple(blocks)))
        assert issues
        # everything between the previous block's J and this block's J is now bare
        assert f"uncovered: {sched.blocks[0].j[1] + 1}" in issues

    def test_ordering_violation_detected(self):
        sched = self.base()
        blocks = list(reversed(sched.blocks))
        assert validate_schedule(IntervalSchedule(horizon=sched.horizon, blocks=tuple(blocks)))

    def test_interleaving_blocks_cover_jointly(self):
        sched = self.base()
        covered = set()
        for b in sched.blocks:
            covered.update(range(b.i[0], b.i[1] + 1))
            covered.update(range(b.j[0], b.j[1] + 1))
        assert covered >= set(range(1, sched.horizon + 1))

    def test_tilde_budgets_sit_between_blocked_intervals(self):
        sched = self.base()
        for k, b in enumerate(sched.blocks):
            if b.i_tilde is not None:
                assert b.i_tilde[0] == b.i[1] + 1
            if b.j_tilde is not None and k > 0:
                assert b.j_tilde[1] == b.j[0] - 1
