import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rankpair import (
    CorrelationSequence,
    CoverageError,
    SimulationConfig,
    chaos_exp_coefficients,
    fejer_density,
    gaussian_sample,
    summability_report,
    trig_polynomial_density,
)


def seq(entries, norm_sq=Fraction(1)):
    return CorrelationSequence(
        entries={n: (Fraction(v), Fraction(v)) for n, v in entries.items()},
        norm_sq=norm_sq,
    )


class TestDensities:
    def test_constant_sequence_gives_flat_density(self):
        est = trig_polynomial_density(seq({0: 1}), 64)
        assert np.allclose(est.values, 1.0)
        assert est.grid_mean() == pytest.approx(1.0)
        assert est.min_value() == pytest.approx(1.0)

    def test_cosine_density(self):
        est = trig_polynomial_density(seq({0: 1, 3: Fraction(1, 2)}), 360)
        expected = 1.0 + np.cos(3 * est.thetas)
        assert np.allclose(est.values, expected)

    def test_zero_lags_skipped_bit_for_bit(self):
        # lags 1-29 and the bracket (-1/4, 1/4) at lag 40 have midpoint 0
        entries = {n: (Fraction(0), Fraction(0)) for n in range(64)}
        entries.update({0: (Fraction(1), Fraction(1)), 30: (Fraction(-1, 3), Fraction(-1, 3)),
                        40: (Fraction(-1, 4), Fraction(1, 4)), 63: (Fraction(1, 7), Fraction(1, 5))})
        s = CorrelationSequence(entries=entries, norm_sq=Fraction(1))
        thetas = 2.0 * np.pi * np.arange(97) / 97
        for est, weights in ((fejer_density(s, 64, 97), [(n, 1.0 - n / 64) for n in range(1, 64)]),
                             (trig_polynomial_density(s, 97), [(n, 1.0) for n in range(1, 64)])):
            loop = np.full(97, 1.0)
            for n, w in weights:
                loop += 2.0 * (w * float(s.midpoint(n))) * np.cos(n * thetas)
            assert np.array_equal(est.values, loop)
            assert np.array_equal(np.signbit(est.values), np.signbit(loop))

    def test_grid_mean_recovers_lag_zero(self):
        est = trig_polynomial_density(
            seq({0: 1, 1: Fraction(1, 3), 5: Fraction(-1, 7)}), 4096
        )
        assert est.grid_mean() == pytest.approx(1.0, abs=1e-12)

    def test_fejer_nonnegative_for_true_covariance(self):
        # exact correlations of a genuine covariance keep the kernel estimate
        # nonnegative up to rounding
        entries = {n: max(Fraction(4 - n, 4), Fraction(0)) for n in range(8)}
        est = fejer_density(seq(entries), order=5, grid=1024)
        assert est.min_value() >= -1e-9

    def test_fejer_requires_coverage(self):
        with pytest.raises(CoverageError, match="n=1 not covered"):
            fejer_density(seq({0: 1}), order=4, grid=64)


@pytest.mark.parametrize("read", [
    lambda s: s.entry(1),
    lambda s: summability_report(s, (0, 2)),
    lambda s: fejer_density(s, 3, 8),
    lambda s: gaussian_sample(s, 3, SimulationConfig(sample_count=4)),
], ids=["entry", "summability", "fejer", "gaussian"])
def test_every_reader_names_the_first_missing_lag(read):
    table = CorrelationSequence({0: (Fraction(1), Fraction(1)), 2: (Fraction(0), Fraction(0))},
                                Fraction(1), "f")
    with pytest.raises(CoverageError, match=r"^n=1 not covered by sequence 'f'$"):
        read(table)


@st.composite
def bracket(draw):
    """A straddling, negative, positive or zero bracket; a zero one is made
    of fresh ``Fraction`` objects, not the shared ``ZERO``."""
    kind = draw(st.sampled_from(["straddling", "negative", "positive", "zero"]))
    if kind == "zero":
        return (Fraction(0), Fraction(0))
    magnitude = st.fractions(min_value=Fraction(1, 8), max_value=2, max_denominator=8)
    x, y = sorted(draw(st.lists(magnitude, min_size=2, max_size=2)))
    return {"straddling": (-x, y), "negative": (-y, -x), "positive": (x, y)}[kind]


class TestSummability:
    @given(st.integers(-5, 5), st.lists(bracket(), min_size=1, max_size=12), st.data())
    def test_matches_per_lag_sums(self, start, brackets, data):
        s = CorrelationSequence(
            entries={start + i: b for i, b in enumerate(brackets)}, norm_sq=Fraction(1)
        )
        lo = data.draw(st.integers(start, start + len(brackets) - 1))
        hi = data.draw(st.integers(lo, start + len(brackets) - 1))
        l1 = [Fraction(0), Fraction(0)]
        l2 = [Fraction(0), Fraction(0)]
        for n in range(lo, hi + 1):
            a, b = s.entries[n]
            upper = max(abs(a), abs(b))
            lower = Fraction(0) if a <= 0 <= b else min(abs(a), abs(b))
            l1 = [l1[0] + lower, l1[1] + upper]
            l2 = [l2[0] + lower * lower, l2[1] + upper * upper]
        rep = summability_report(s, (lo, hi))
        assert rep.l1 == tuple(l1) and rep.l2 == tuple(l2)
        assert all(type(x) is Fraction for x in rep.l1 + rep.l2)
        assert rep.support == [n for n in range(lo, hi + 1) if s.entries[n] != (0, 0)]

    def test_exact_sums(self):
        s = seq({0: 1, 1: Fraction(1, 2), 2: 0})
        rep = summability_report(s, (0, 2))
        assert rep.l1 == (Fraction(3, 2), Fraction(3, 2))
        assert rep.l2 == (Fraction(5, 4), Fraction(5, 4))
        assert rep.support == [0, 1]

    def test_bracketed_entries_widen_the_bounds(self):
        s = CorrelationSequence(
            entries={1: (Fraction(-1, 4), Fraction(1, 2))},
            norm_sq=Fraction(1),
        )
        rep = summability_report(s, (1, 1))
        assert rep.l1 == (Fraction(0), Fraction(1, 2))


class TestChaos:
    def test_exponential_partial_sum(self):
        s = seq({0: 1, 7: Fraction(1, 2)})
        chaos = chaos_exp_coefficients(s, chaos_cap=10)
        got = chaos.sequence.entries[7][0]
        assert abs(float(got) - (math.exp(0.5) - 1)) < 1e-9

    def test_tail_bound_dominates_true_tail(self):
        s = seq({0: 1, 7: Fraction(1, 2)})
        chaos = chaos_exp_coefficients(s, chaos_cap=10)
        true_tail = (math.exp(0.5) - 1) - float(chaos.sequence.entries[7][0])
        assert float(chaos.tails[7]) >= true_tail > 0

    def test_requires_normalized_input(self):
        with pytest.raises(ValueError):
            chaos_exp_coefficients(seq({0: Fraction(1, 2)}), 5)
        with pytest.raises(ValueError):
            chaos_exp_coefficients(seq({1: Fraction(1, 2)}), 5)

    def test_enclosure_holds_the_minimum_inside_the_bracket(self):
        # s_2(x) = x + x^2/2 is 0 at both ends of [-2, 0] and -1/2 at -1
        s = CorrelationSequence({0: (Fraction(1), Fraction(1)),
                                 1: (Fraction(-2), Fraction(0))}, Fraction(1))
        lo, hi = chaos_exp_coefficients(s, chaos_cap=2).sequence.entries[1]
        assert lo <= Fraction(-1, 2) <= hi

    @given(st.fractions(-3, 3, max_denominator=6), st.fractions(-3, 3, max_denominator=6),
           st.integers(1, 12))
    def test_enclosure_contains_every_value_in_the_bracket(self, x, y, cap):
        a, b = sorted((x, y))
        s = CorrelationSequence({0: (Fraction(1), Fraction(1)), 1: (a, b)}, Fraction(1))
        lo, hi = chaos_exp_coefficients(s, cap).sequence.entries[1]
        # a correlation with rho(0) = 1 lies in [-1, 1]
        a, b = max(a, Fraction(-1)), min(b, Fraction(1))
        for i in range(17) if a <= b else ():
            t = a + (b - a) * Fraction(i, 16)
            assert lo <= sum(t ** k / math.factorial(k) for k in range(1, cap + 1)) <= hi
