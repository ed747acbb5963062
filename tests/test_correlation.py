import math
import sys
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

from rankpair.core import occurrence_set
from rankpair import correlation
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
        # in the top zone adds 1/4 of slack
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

    def test_zero_function_has_no_terms(self, small_spec):
        """A function whose coefficients are all zero adds no term, so its
        walk over any range, however long, ends at once with nothing."""
        zero = LevelFunction(1, ((0, Fraction(0)),))
        for table in bracket_tables(small_spec, zero):
            assert table.terms == []
            assert table.bracket(0) is ZERO
            assert [*table.nonzero(range(-10 ** 30, 10 ** 30))] == []

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
    """The engine's pair counts and envelope, integer brackets, the
    tolerance check and the walk over nonzero lags against the label-list
    oracle of conftest."""

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
        table = [*bracket_tables(spec, f, g)][-1]
        brackets = ((n, oracle_bracket(spec, f, g, n)) for n in range(lo, hi + 1))
        assert [*table.nonzero(range(lo, hi + 1))] == [(n, b) for n, b in brackets if b != (0, 0)]

    @given(cross_case(), st.integers(-15, 15), st.integers(0, 24), st.integers(2, 4))
    @settings(max_examples=100, deadline=None)
    def test_a_stepped_range_walks_its_own_lags(self, case, lo, length, step):
        spec, f, g = case
        lags = range(lo, lo + length + 1, step)
        table = [*bracket_tables(spec, f, g)][-1]
        brackets = ((n, oracle_bracket(spec, f, g, n)) for n in lags)
        assert [*table.nonzero(lags)] == [(n, b) for n, b in brackets if b != (0, 0)]

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

    @given(cross_case())
    @settings(max_examples=100, deadline=None)
    def test_envelope_is_where_a_top_zone_is_nonzero(self, case):
        """At every depth, a lag reaches a nonzero top zone with some term
        exactly when it lies at or past an envelope end, ``height -
        maxpos_f - max shift`` or ``maxpos_g - height - min shift``."""
        spec, f, g = case
        for table in bracket_tables(spec, f, g):
            h = table.height
            for n in range(-h - 3, h + 4):
                reached = any(table.top_zone(n + s) for s in table.shifts)
                assert reached == (n >= table.envelope_from or n <= table.envelope_to)

    @given(st.lists(stage_strategy(max_cuts=4), min_size=1, max_size=3),
           st.integers(1, 3), st.data())
    @settings(max_examples=150, deadline=None)
    def test_pair_counts(self, stages, base, data):
        """At every depth, the pair count at each difference in
        ``[-height, height]`` is that of the base positions the labels of
        the spec cut to that depth give, for indicators on different
        stages, so the support's clip is exercised at both ends."""
        spec = RankOneSpec(stages=tuple(stages), base_height=base)
        stage_f = data.draw(st.integers(1, spec.max_depth))
        stage_g = data.draw(st.integers(1, spec.max_depth))
        f, g = LevelFunction.indicator(stage_f), LevelFunction.indicator(stage_g)
        depths = []
        for table in bracket_tables(spec, f, g):
            cut = RankOneSpec(stages=spec.stages[: table.depth - 1], base_height=base)
            occ_f, occ_g = base_positions(cut, stage_f), base_positions(cut, stage_g)
            expected = Counter(b - a for a in occ_f for b in occ_g)
            for m in range(-table.height, table.height + 1):
                assert dict(table.engine.pairs(table.depth, m, m)[0]).get(m, 0) == expected[m]
            depths.append(table.depth)
        assert depths == list(range(max(stage_f, stage_g), spec.max_depth + 1))

    @given(spec_strategy(max_stages=4), st.data())
    @settings(max_examples=150, deadline=None)
    def test_range_queries_and_the_next_pair_past_them(self, spec, data):
        """At every depth, a range query's counts are those of the base
        positions the labels give, and ``after`` is the first difference
        past the range with a pair, ``inf`` past the last one, for
        indicators on any two stages and ranges below, across, inside and
        above the support."""
        stage_f = data.draw(st.integers(1, spec.max_depth))
        stage_g = data.draw(st.integers(1, spec.max_depth))
        f, g = LevelFunction.indicator(stage_f), LevelFunction.indicator(stage_g)
        for table in bracket_tables(spec, f, g):
            cut = RankOneSpec(stages=spec.stages[: table.depth - 1])
            occ_f, occ_g = base_positions(cut, stage_f), base_positions(cut, stage_g)
            expected = Counter(b - a for a in occ_f for b in occ_g)
            low, high = min(expected), max(expected)
            ends = st.integers(low - 3, high + 3) | st.sampled_from([low - 1, low, high, high + 1])
            for _ in range(3):
                lo, hi = sorted(data.draw(st.tuples(ends, ends)))
                found = sorted((m, c) for m, c in expected.items() if lo <= m <= hi)
                after = min((m for m in expected if m > hi), default=math.inf)
                assert table.engine.pairs(table.depth, lo, hi) == (found, after)

    @given(cross_case(), st.lists(st.integers(-15, 15), min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_tables_match_truncated_specs(self, case, lags):
        """The table one pass yields at depth ``d`` brackets every lag as the
        spec cut to its first ``d - 1`` stages does at its deepest."""
        spec, f, g = case
        depths = []
        for table in bracket_tables(spec, f, g):
            d = table.depth
            cut = RankOneSpec(stages=spec.stages[: d - 1], base_height=spec.base_height)
            for n in lags:
                assert table.bracket(n) == oracle_bracket(cut, f, g, n)
            depths.append(d)
        assert depths == list(range(max(f.stage, g.stage), spec.max_depth + 1))


class TestContainment:
    """A bracket holds the value of every extension of its spec."""

    @given(cross_case(), st.lists(stage_strategy(), max_size=2),
           st.lists(st.integers(-15, 15), min_size=1, max_size=4), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_extension_lies_inside_the_deepest_bracket(self, case, more, lags, extra):
        """Random stages appended to a spec give brackets inside its
        deepest ones.  A closing stage appended after them, whose spacers
        reach every difference ``n + lf - lg`` the lags read, makes the
        two ends of each bracket equal: the extension's exact value, which
        lies inside both."""
        spec, f, g = case
        longer = RankOneSpec(stages=spec.stages + tuple(more), base_height=spec.base_height)
        reach = max((abs(n + lf - lg) for n in lags for lf in f.levels for lg in g.levels),
                    default=0)
        closing = StageSpec(2, (reach + extra,) * 2)
        closed = RankOneSpec(stages=longer.stages + (closing,), base_height=spec.base_height)
        for n in lags:
            lo, hi = correlation_sequence(spec, f, [n], g=g).entries[n]
            inner_lo, inner_hi = correlation_sequence(longer, f, [n], g=g).entries[n]
            value, same = correlation_sequence(closed, f, [n], g=g).entries[n]
            assert value == same
            assert lo <= inner_lo <= value <= inner_hi <= hi


class TestMemoCap:
    """``MEMO_CAP`` bounds the pair counts one range query holds at once,
    its memo's ranges and counts and the sums under way; the query starts
    both afresh and leaves nothing held when it returns."""

    spec = RankOneSpec(stages=(StageSpec(3, (0, 1, 2)),) * 4)
    f = LevelFunction.from_dict(1, {0: Fraction(1)})

    def test_a_query_counts_its_memo_and_sums_and_keeps_nothing(self, monkeypatch):
        """After every merge and memo entry the count is the memo's ranges
        and counts plus the sums of the queries under way, read off their
        frames; once the query returns, the pass holds no count."""
        *_, table = bracket_tables(self.spec, self.f)
        engine, live, checks = table.engine, [], []
        query, hold = correlation._Pass._query, correlation._Pass._hold

        def watched_query(engine, *q):
            live.append(query(engine, *q))
            return live[-1]

        def watched_hold(engine, entries):
            hold(engine, entries)
            memo = len(engine.memo) + sum(len(found) for found, _ in engine.memo.values())
            sums = sum(len(g.gi_frame.f_locals.get("acc", ())) for g in live if g.gi_frame)
            checks.append(engine.held == memo + sums)

        monkeypatch.setattr(correlation._Pass, "_query", watched_query)
        monkeypatch.setattr(correlation._Pass, "_hold", watched_hold)
        found, after = engine.pairs(table.depth, -40, 40)
        assert len(found) == 81 and after == 41
        assert len(checks) > 10 and all(checks)
        assert engine.memo == {} and engine.held == 0

    def test_a_query_at_the_cap_passes_and_one_count_more_raises(self, monkeypatch):
        """A cap equal to the most the query ever held lets it through
        with the same answer; one less stops it, and it keeps nothing."""
        *_, table = bracket_tables(self.spec, self.f)
        engine, peak = table.engine, 0
        hold = correlation._Pass._hold

        def watched_hold(engine, entries):
            nonlocal peak
            hold(engine, entries)
            peak = max(peak, engine.held)

        monkeypatch.setattr(correlation._Pass, "_hold", watched_hold)
        expected = engine.pairs(table.depth, -40, 40)
        assert peak > 20
        monkeypatch.setattr(correlation, "MEMO_CAP", peak)
        assert engine.pairs(table.depth, -40, 40) == expected
        monkeypatch.setattr(correlation, "MEMO_CAP", peak - 1)
        with pytest.raises(MemoryError, match=f"pair counts held over the cap {peak - 1}$"):
            engine.pairs(table.depth, -40, 40)
        assert engine.memo == {} and engine.held == 0

    def test_a_query_whose_sums_pass_the_cap_stops(self, monkeypatch):
        *_, table = bracket_tables(self.spec, self.f)
        assert len(table.engine.pairs(table.depth, -40, 40)[0]) > 4
        monkeypatch.setattr(correlation, "MEMO_CAP", 4)
        with pytest.raises(MemoryError, match="pair counts held over the cap 4$"):
            table.engine.pairs(table.depth, -40, 40)

    def test_a_tower_deeper_than_the_recursion_limit(self):
        """Binary cuts with no spacers put an occurrence in every cell, so
        ``(f, T^n f)`` is ``[1 - n / height, 1]`` for the indicator of the
        whole base; lag 1 branches at every depth."""
        depth = sys.getrecursionlimit() + 100
        spec = RankOneSpec(stages=(StageSpec(2, (0, 0)),) * depth)
        f = LevelFunction.indicator(1)
        seq = correlation_sequence(spec, f, range(4))
        assert seq.entries == {n: (1 - Fraction(n, 2 ** depth), Fraction(1)) for n in range(4)}


class TestWindows:
    """The walk's windows: each reads one range query, its width doubles
    from 1 up to ``WINDOW``, and outside the envelope the next one starts
    at the first lag that a pair reaches, never past the envelope."""

    @staticmethod
    def windows(table, monkeypatch):
        """The lag windows ``[n, hi]`` that the table's walks read, each
        past the one before, so a walk that stalls stops at once."""
        seen, pairs = [], table.engine.pairs

        def watched_pairs(d, lo, hi):
            window = (lo - table.shifts[0], hi - table.shifts[-1])
            assert not seen or window[0] > seen[-1][1], f"{window} after {seen[-1]}"
            seen.append(window)
            return pairs(d, lo, hi)

        monkeypatch.setattr(table.engine, "pairs", watched_pairs)
        return seen

    def test_widths_double_up_to_the_window(self, monkeypatch):
        """Every lag of ``[0, 192]`` is nonzero; the windows run 1, 2 and 4
        lags, stop at the envelope end 8, and go on 8 at a time."""
        monkeypatch.setattr(correlation, "WINDOW", 8)
        *_, table = bracket_tables(TestMemoCap.spec, TestMemoCap.f)
        assert table.envelope_from == 9
        seen = self.windows(table, monkeypatch)
        assert len([*table.nonzero(range(193))]) == 193
        assert seen == [(0, 0), (1, 2), (3, 6), (7, 8), *((n, n + 7) for n in range(9, 193, 8))]

    @given(cross_case(), st.integers(-15, 15), st.integers(0, 40), st.integers(1, 3),
           st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_a_walk_resumes_at_the_first_lag_a_pair_reaches(self, case, lo, length, step, window):
        """Past a window that starts outside the envelope, the next starts
        at the first lag of the sequence at or past the first lag that a
        pair reaches (some ``m - shift`` with a pair at ``m``) or the
        envelope's start, whichever is first; past any other window, at
        its next lag.  Widths double from 1 up to ``WINDOW``."""
        spec, f, g = case
        lags = range(lo, lo + length + 1, step)
        table = [*bracket_tables(spec, f, g)][-1]
        with pytest.MonkeyPatch.context() as monkeypatch:
            monkeypatch.setattr(correlation, "WINDOW", window)
            seen = self.windows(table, monkeypatch)
            list(table.nonzero(lags))
        if not table.terms:
            return
        occ_f, occ_g = base_positions(spec, f.stage), base_positions(spec, g.stage)
        reached = {b - a - s for a in occ_f for b in occ_g for s in table.shifts}

        def resume(n, hi):
            if table.envelope_to < n < table.envelope_from:
                return min([x for x in reached if x > hi] + [table.envelope_from])
            return hi + 1

        assert seen[0][0] == lags[0]
        for k, (n, hi) in enumerate(seen):
            end = (table.envelope_from - 1 if table.envelope_to < n < table.envelope_from
                   else table.envelope_to if n <= table.envelope_to else lags[-1])
            assert hi == min(n + min(2 ** k, window) - 1, end, lags[-1])
            rest = [x for x in lags if x >= resume(n, hi)]
            assert [w[0] for w in seen[k + 1:k + 2]] == rest[:1]

    def test_a_skip_stops_at_the_envelope(self):
        """f on stage 4 of a 3-stage spec has its one pair at difference 0,
        so no pair lies past lag 0; lags 8 and 9 are inside the envelope,
        nonzero, and a walk that skipped past it would drop them."""
        spec = RankOneSpec(stages=(StageSpec(2, (0, 0)),) * 3)
        f = LevelFunction.indicator(4)
        *_, table = bracket_tables(spec, f)
        assert (table.height, table.envelope_from) == (8, 8)
        assert table.engine.pairs(table.depth, 0, 0) == ([(0, 1)], math.inf)
        oracle = ((n, oracle_bracket(spec, f, f, n)) for n in range(10))
        expected = [(n, b) for n, b in oracle if b != (0, 0)]
        assert [n for n, _ in expected] == [0, 8, 9]
        assert [*table.nonzero(range(10))] == expected


class TestBandCoverage:
    """Differences and lag runs just outside the lag bands that a pass
    limited to declared lags would count read their exact brute-force
    counts and brackets: a pair count is exact at every difference, so no
    lag range needs declaring before the pass."""

    # depth-3 tower of height 10; f's levels 0 and 2 give shifts -2, 0, 2
    spec = RankOneSpec(stages=(StageSpec(2, (1, 0)), StageSpec(2, (4, 0))))
    f = LevelFunction.from_dict(2, {0: Fraction(1), 2: Fraction(-1)})

    def test_pair_count_just_outside_a_band(self):
        """Lags ``[(0, 2), (20, 22)]`` with those shifts span the bands
        ``[(-2, 4), (18, 24)]``; the differences at both ends of each band,
        one step outside them and at the pairs read their counts."""
        table = [*bracket_tables(self.spec, self.f)][-1]
        occ = base_positions(self.spec, 2)
        assert occ == [0, 7]
        expected = Counter(b - a for a in occ for b in occ)
        for m in (-2, 4, 18, 24, -3, 5, 17, 25, -7, 0, 7, -8, 8):
            assert dict(table.engine.pairs(table.depth, m, m)[0]).get(m, 0) == expected[m]

    def test_first_nonzero_just_outside_a_band(self):
        """Lags ``[(5, 8)]`` span the band ``[(3, 10)]``; the runs that
        reach one lag past it at either end walk as the oracle brackets."""
        table = [*bracket_tables(self.spec, self.f)][-1]
        for lo, hi in ((5, 8), (4, 8), (5, 9)):
            oracle = ((n, oracle_bracket(self.spec, self.f, self.f, n)) for n in range(lo, hi + 1))
            assert [*table.nonzero(range(lo, hi + 1))] == [(n, b) for n, b in oracle if b != (0, 0)]
