from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankpair import (
    CorrelationSequence,
    CoverageError,
    RankOneSpec,
    StageSpec,
    LevelFunction,
    ToleranceNotReached,
    autocorrelation,
    corr_functional,
    correlation_sequence,
    product_correlation,
    summability_report,
)

from rankpair.core import merge_intervals, occurrence_set
from rankpair.correlation import ZERO, bracket_tables

from conftest import base_positions, oracle_autocorrelation, oracle_bracket
from test_core import spec_strategy, stage_strategy


def level_function_strategy(spec: RankOneSpec):
    h = spec.heights()[0]
    return st.dictionaries(
        st.integers(0, h - 1),
        st.fractions(min_value=-2, max_value=2, max_denominator=4),
        min_size=1,
        max_size=3,
    ).map(lambda d: LevelFunction.from_dict(1, d))


class TestAutocorrelation:
    def test_lag_zero_is_norm(self, small_spec):
        f = LevelFunction.indicator(1)
        nsq = f.norm_sq(small_spec)
        assert autocorrelation(small_spec, f, 0) == (nsq, nsq)

    def test_full_odometer_tower(self):
        # ten binary cuts with no spacers: every cell is an occurrence
        spec = RankOneSpec(stages=(StageSpec(2, (0, 0)),) * 10)
        f = LevelFunction.indicator(1)
        lo, hi = autocorrelation(spec, f, 1)
        assert (lo, hi) == (Fraction(1023, 1024), 1)

    def test_two_stage_worked_bracket(self):
        # stages (2,(1,0)) then (2,(4,0)): depth-3 occurrences of the base
        # level sit at {0, 2, 7, 9} in a height-10 tower of width 1/4, so two
        # pairs at difference 2 give a lower bound of 1/2 and one occurrence
        # in the top window adds 1/4 of slack
        spec = RankOneSpec(stages=(StageSpec(2, (1, 0)), StageSpec(2, (4, 0))))
        assert occurrence_set(spec, 1, 3) == (0, 2, 7, 9)
        assert spec.heights()[2] == 10
        assert spec.widths()[2] == Fraction(1, 4)
        f = LevelFunction.indicator(1)
        assert autocorrelation(spec, f, 2) == (Fraction(1, 2), Fraction(3, 4))

    def test_cauchy_schwarz_bound(self):
        spec = RankOneSpec(stages=(StageSpec(2, (1, 0)), StageSpec(2, (4, 0))))
        f = LevelFunction.indicator(1)
        seq = correlation_sequence(spec, f, range(15))
        top = seq.entries[0][1]
        assert all(
            max(abs(x) for x in seq.entries[n]) <= top for n in range(15)
        )

    def test_symmetric_in_lag(self, small_spec):
        f = LevelFunction.indicator(1)
        assert autocorrelation(small_spec, f, 5) == autocorrelation(small_spec, f, -5)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle(self, data):
        spec = data.draw(spec_strategy(max_stages=4))
        f = data.draw(level_function_strategy(spec))
        n = data.draw(st.integers(0, 12))
        assert autocorrelation(spec, f, n) == oracle_autocorrelation(spec, f, n)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_brackets_nest_as_stages_accrue(self, data):
        spec = data.draw(spec_strategy(max_stages=4))
        f = LevelFunction.indicator(1)
        n = data.draw(st.integers(0, 8))
        prev = None
        for depth in range(1, spec.max_depth + 1):
            pre = RankOneSpec(stages=spec.stages[: depth - 1])
            lo, hi = autocorrelation(pre, f, n)
            assert lo <= hi
            if prev is not None:
                assert prev[0] <= lo and hi <= prev[1]
            prev = (lo, hi)


class TestTolerance:
    def test_unreachable_tolerance_raises(self):
        spec = RankOneSpec(stages=(StageSpec(2, (0, 0)),))
        with pytest.raises(ToleranceNotReached):
            autocorrelation(spec, LevelFunction.indicator(1), 1, Fraction(0))

    def test_top_gap_gives_exactness(self):
        # large uniform spacers push the top occurrence away from the tower
        # top, so small lags are certified with zero tolerance
        spec = RankOneSpec(
            stages=(StageSpec(2, (1, 1)), StageSpec(2, (50, 50)))
        )
        f = LevelFunction.indicator(1)
        lo, hi = autocorrelation(spec, f, 2, Fraction(0))
        assert lo == hi == Fraction(1, 2)


class TestCrossCorrelation:
    def test_different_stages(self, small_spec):
        f = LevelFunction.indicator(1)
        g = LevelFunction.indicator(2)
        lo, hi = correlation_sequence(small_spec, f, [0], g=g).entries[0]
        # the depth-2 bottom level lies entirely inside the base level
        assert lo == Fraction(1, 2)
        assert lo <= hi

    def test_disjoint_levels_at_lag_zero(self):
        spec = RankOneSpec(stages=(StageSpec(2, (0, 0)),) * 3)
        a = LevelFunction.from_dict(2, {0: Fraction(1)})
        b = LevelFunction.from_dict(2, {1: Fraction(1)})
        assert correlation_sequence(spec, a, [0], g=b).entries[0] == (Fraction(0), Fraction(0))

    def test_window_guard(self, small_spec):
        f = LevelFunction.indicator(1)
        seq = correlation_sequence(small_spec, f, [0, 1])
        with pytest.raises(CoverageError):
            seq.entry(5)


class TestCorrelationSequence:
    def test_agrees_with_single_lag_calls(self, small_spec):
        f = LevelFunction.indicator(1)
        seq = correlation_sequence(small_spec, f, range(0, 9))
        for n in range(0, 9):
            assert seq.entries[n] == autocorrelation(small_spec, f, n)

    def test_support_and_exactness(self):
        spec = RankOneSpec(
            stages=(StageSpec(2, (1, 1)), StageSpec(2, (50, 50)))
        )
        f = LevelFunction.indicator(1)
        seq = correlation_sequence(spec, f, range(0, 10), tolerance=Fraction(0))
        assert all(lo == hi for lo, hi in seq.entries.values())
        assert seq.support() == [0, 2]

    def test_norm_sq(self, small_spec):
        f = LevelFunction.indicator(1)
        seq = correlation_sequence(small_spec, f, [0])
        assert seq.norm_sq == f.norm_sq(small_spec)


@st.composite
def bracket_and_point(draw):
    """A rational bracket ``[a, b]`` and a value inside it, endpoints included."""
    a, b = sorted(draw(st.lists(st.fractions(-3, 3, max_denominator=6), min_size=2, max_size=2)))
    t = draw(st.fractions(0, 1, max_denominator=6))
    return (a, b), a + t * (b - a)


# a factor of a product: the shared ZERO, a fresh zero pair, or any bracket
factor = st.one_of(st.just(ZERO), st.just((Fraction(0), Fraction(0))),
                   bracket_and_point().map(lambda bracket_point: bracket_point[0]))


class TestFunctionals:
    def test_corr_functional_sums_absolute_values(self):
        seq = CorrelationSequence(
            entries={
                1: (Fraction(1, 2), Fraction(1, 2)),
                2: (Fraction(-1, 4), Fraction(-1, 4)),
                3: (Fraction(-1, 8), Fraction(1, 8)),
            },
            norm_sq=Fraction(1),
        )
        lo, hi = corr_functional(seq, (1, 3))
        assert lo == Fraction(3, 4)
        assert hi == Fraction(7, 8)

    def test_product_correlation_interval_product(self):
        a = CorrelationSequence(
            entries={0: (Fraction(-1), Fraction(2))}, norm_sq=Fraction(1)
        )
        b = CorrelationSequence(
            entries={0: (Fraction(-3), Fraction(1))}, norm_sq=Fraction(1)
        )
        prod = product_correlation(a, b)
        assert prod.entries[0] == (Fraction(-6), Fraction(3))

    def test_product_zero_absorbs(self):
        a = CorrelationSequence(
            entries={5: (Fraction(0), Fraction(0))}, norm_sq=Fraction(1)
        )
        b = CorrelationSequence(
            entries={5: (Fraction(-7), Fraction(9))}, norm_sq=Fraction(1)
        )
        assert product_correlation(a, b).entries[5] == (0, 0)

    @given(st.lists(st.tuples(factor, factor), min_size=1, max_size=6))
    def test_product_is_shared_zero_where_a_factor_is_zero(self, rows):
        """A zero factor, the shared ``ZERO`` or a fresh zero bracket, gives
        the shared ``ZERO``; any other lag gets the min and max of the four
        corner products."""
        s = CorrelationSequence({n: iv for n, (iv, _) in enumerate(rows)}, Fraction(1))
        t = CorrelationSequence({n: iv for n, (_, iv) in enumerate(rows)}, Fraction(1))
        prod = product_correlation(s, t)
        assert sorted(prod.entries) == list(range(len(rows)))
        for n, ((a, b), (c, d)) in enumerate(rows):
            if (a, b) == ZERO or (c, d) == ZERO:
                assert prod.entries[n] is ZERO
            else:
                corners = (a * c, a * d, b * c, b * d)
                assert prod.entries[n] == (min(corners), max(corners))

    @given(st.lists(st.tuples(bracket_and_point(), bracket_and_point()), min_size=1, max_size=4))
    @settings(max_examples=100)
    def test_derived_brackets_hold_every_point_inside(self, rows):
        """Values sampled inside the input brackets map inside the output
        brackets: the product's, and the absolute and squared sums'."""
        s = CorrelationSequence({n: iv for n, ((iv, _), _) in enumerate(rows)}, Fraction(1))
        t = CorrelationSequence({n: iv for n, (_, (iv, _)) in enumerate(rows)}, Fraction(1))
        prod = product_correlation(s, t)
        for n, ((_, x), (_, y)) in enumerate(rows):
            lo, hi = prod.entries[n]
            assert lo <= x * y <= hi
        xs = [x for (_, x), _ in rows]
        report = summability_report(s, (0, len(rows) - 1))
        assert report.l1[0] <= sum(abs(x) for x in xs) <= report.l1[1]
        assert report.l2[0] <= sum(x * x for x in xs) <= report.l2[1]


@st.composite
def cross_case(draw):
    """A spec with base height 1-3 and two signed multi-level functions,
    each on its own (possibly different) stage."""
    stages = draw(st.lists(stage_strategy(), min_size=1, max_size=3))
    spec = RankOneSpec(stages=tuple(stages), base_height=draw(st.integers(1, 3)))
    heights = spec.heights()

    def function():
        stage = draw(st.integers(1, spec.max_depth))
        coeffs = draw(st.dictionaries(
            st.integers(0, heights[stage - 1] - 1),
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
            min_size=1, max_size=3,
        ))
        return LevelFunction.from_dict(stage, coeffs)

    return spec, function(), function()


class TestAgainstBruteForce:
    """The engine's count tables, integer brackets, the tolerance check and
    the walk over nonzero lags against the label-list oracle of conftest."""

    @given(cross_case(), st.lists(st.integers(-15, 15), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_brackets(self, case, lags):
        spec, f, g = case
        seq = correlation_sequence(spec, f, lags, g=g)
        for n in lags:
            assert seq.entries[n] == oracle_bracket(spec, f, g, n)

    @given(cross_case(), st.integers(-15, 15), st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_first_nonzero(self, case, lo, length):
        """The walk yields every lag whose bracket is not zero, in order,
        with that bracket."""
        spec, f, g = case
        hi = lo + length
        table = [*bracket_tables(spec, f, [(lo, hi)], g)][-1]
        brackets = ((n, oracle_bracket(spec, f, g, n)) for n in range(lo, hi + 1))
        assert [*table.nonzero(range(lo, hi + 1))] == [(n, b) for n, b in brackets if b != (0, 0)]

    @given(cross_case(), st.lists(st.integers(-12, 12), min_size=1, max_size=5),
           st.fractions(min_value=0, max_value=1, max_denominator=8))
    @settings(max_examples=100, deadline=None)
    def test_tolerance_depth(self, case, lags, tolerance):
        """Within the tolerance the brackets are the deepest ones; past it
        the error carries the widest of them."""
        spec, f, g = case
        expected = {n: oracle_bracket(spec, f, g, n) for n in lags}
        widest = max(hi - lo for lo, hi in expected.values())
        if widest <= tolerance:
            seq = correlation_sequence(spec, f, lags, g=g, tolerance=tolerance)
            assert seq.entries == expected
        else:
            with pytest.raises(ToleranceNotReached) as exc:
                correlation_sequence(spec, f, lags, g=g, tolerance=tolerance)
            assert exc.value.achieved_gap == widest

    @given(cross_case(),
           st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 3)), min_size=1, max_size=4),
           st.fractions(min_value=0, max_value=1, max_denominator=8))
    @settings(max_examples=100, deadline=None)
    def test_bands_match_full_window(self, case, runs, tolerance):
        """Counting only the bands that sparse lag runs reach changes no
        bracket, no nonzero lag of a run and no tolerance result."""
        spec, f, g = case
        intervals = [(lo, lo + length) for lo, length in runs]
        lags = sorted({n for lo, hi in intervals for n in range(lo, hi + 1)})
        reach = max(abs(n) for n in lags)
        full = [*bracket_tables(spec, f, [(-reach, reach)], g)][-1]
        banded = [*bracket_tables(spec, f, intervals, g)][-1]
        expected = {n: oracle_bracket(spec, f, g, n) for n in lags}
        for n in lags:
            assert banded.bracket(n) == full.bracket(n) == expected[n]
        for lo, hi in intervals:
            assert [*banded.nonzero(range(lo, hi + 1))] == [*full.nonzero(range(lo, hi + 1))]
        widest = max(hi - lo for lo, hi in expected.values())
        if widest > tolerance:
            with pytest.raises(ToleranceNotReached) as exc:
                correlation_sequence(spec, f, lags, g=g, tolerance=tolerance)
            assert exc.value.achieved_gap == widest
        else:
            seq = correlation_sequence(spec, f, lags, g=g, tolerance=tolerance)
            assert seq.entries == expected

    @given(st.lists(stage_strategy(max_cuts=4), min_size=1, max_size=3),
           st.integers(1, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_count_tables(self, stages, base, data):
        """Every depth's count table holds the pair differences of the base
        positions that the labels of the spec cut to that depth give, inside
        the bands and nothing else; band ends run up to the tower height,
        so the cross-copy cut-off is exercised."""
        spec = RankOneSpec(stages=tuple(stages), base_height=base)
        stage_f = data.draw(st.integers(1, spec.max_depth))
        stage_g = data.draw(st.integers(1, spec.max_depth))
        ends = st.integers(-spec.heights()[-1], spec.heights()[-1])
        bands = merge_intervals(data.draw(st.lists(st.tuples(ends, ends), max_size=3)))
        assert all(hi + 1 < lo for (_, hi), (lo, _) in zip(bands, bands[1:]))
        # level-0 indicators: the only shift is 0, so the bands are the intervals
        f, g = LevelFunction.indicator(stage_f), LevelFunction.indicator(stage_g)
        depths = []
        for table in bracket_tables(spec, f, bands, g):
            assert table.bands == bands
            cut = RankOneSpec(stages=spec.stages[: table.depth - 1], base_height=base)
            occ_f, occ_g = base_positions(cut, stage_f), base_positions(cut, stage_g)
            assert table.counts == Counter(
                b - a for a in occ_f for b in occ_g if any(lo <= b - a <= hi for lo, hi in bands))
            depths.append(table.depth)
        assert depths == list(range(max(stage_f, stage_g), spec.max_depth + 1))


    @given(cross_case(), st.lists(st.integers(-15, 15), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_tables_match_truncated_specs(self, case, lags):
        """The table one pass yields at depth ``d`` brackets every lag as the
        spec cut to its first ``d - 1`` stages does at its deepest."""
        spec, f, g = case
        intervals = [(n, n) for n in lags]
        depths = []
        for table in bracket_tables(spec, f, intervals, g):
            d = table.depth
            cut = RankOneSpec(stages=spec.stages[: d - 1], base_height=spec.base_height)
            for n in lags:
                assert table.bracket(n) == oracle_bracket(cut, f, g, n)
            depths.append(d)
        assert depths == list(range(max(f.stage, g.stage), spec.max_depth + 1))


class TestBandCoverage:
    """A difference outside the counted bands was never counted, so reading
    it raises rather than answer zero."""

    # depth-3 tower of height 10; f's levels 0 and 2 give shifts -2, 0, 2
    spec = RankOneSpec(stages=(StageSpec(2, (1, 0)), StageSpec(2, (4, 0))))
    f = LevelFunction.from_dict(2, {0: Fraction(1), 2: Fraction(-1)})

    def test_pair_count_just_outside_a_band(self):
        table = [*bracket_tables(self.spec, self.f, [(0, 2), (20, 22)])][-1]
        assert table.bands == [(-2, 4), (18, 24)]
        for m in (-2, 4, 18, 24):
            table.pair_count(m)
        for m in (-3, 5, 17, 25):
            with pytest.raises(CoverageError):
                table.pair_count(m)

    def test_first_nonzero_just_outside_a_band(self):
        table = [*bracket_tables(self.spec, self.f, [(5, 8)])][-1]
        assert table.bands == [(3, 10)]
        [*table.nonzero(range(5, 9))]
        for lo, hi in ((4, 8), (5, 9)):
            with pytest.raises(CoverageError):
                [*table.nonzero(range(lo, hi + 1))]
