from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rankpair import (
    WalshPolynomial,
    corr_tail_certificate,
    inner_product,
    lemma3_truncate,
    shift_power,
)
from rankpair.walsh import Lemma3Truncation, _distance_below, correlation_budget, shift_cutoff


def walsh_strategy(max_index=30, max_terms=5):
    term = st.tuples(
        st.sets(st.integers(-max_index, max_index), min_size=1, max_size=3),
        st.fractions(min_value=-3, max_value=3, max_denominator=8).filter(
            lambda c: c != 0
        ),
    )
    return st.lists(term, min_size=1, max_size=max_terms).map(
        WalshPolynomial.from_terms
    )


class TestAlgebra:
    def test_orthonormality(self):
        r0 = WalshPolynomial.from_terms([((0,), 1)])
        r1 = WalshPolynomial.from_terms([((1,), 1)])
        assert inner_product(r0, r0) == 1
        assert inner_product(r0, r1) == 0
        prod01 = WalshPolynomial.from_terms([((0, 1), 1)])
        assert inner_product(prod01, prod01) == 1
        assert inner_product(prod01, r0) == 0

    def test_shift_translates_indices(self):
        p = WalshPolynomial.from_terms([((0, 2), Fraction(1, 2))])
        q = shift_power(p, 3)
        assert q.coefficient((3, 5)) == Fraction(1, 2)

    @given(walsh_strategy(), st.integers(-20, 20))
    @settings(max_examples=50)
    def test_shift_preserves_norm(self, p, m):
        assert shift_power(p, m).norm_sq() == p.norm_sq()

    @given(st.one_of(walsh_strategy(), walsh_strategy(max_index=5)))
    @settings(max_examples=100)
    def test_shifts_beyond_spread_are_orthogonal(self, p):
        # small indices make two index sets of one shape common
        cutoff = shift_cutoff(p)
        for m in range(cutoff + 1, cutoff + 18):
            assert inner_product(shift_power(p, m), p) == 0
            assert inner_product(shift_power(p, -m), p) == 0


class TestTruncation:
    def test_four_term_example(self):
        f = WalshPolynomial.from_terms(
            [((i,), Fraction(1, 2)) for i in range(4)]
        )
        trunc = lemma3_truncate(f, Fraction(1, 100))
        assert trunc.f_prime == f
        assert trunc.cutoff == 4
        assert trunc.tail_frac == 0

    def test_truncation_drops_far_terms(self):
        f = WalshPolynomial.from_terms(
            [((0,), 1), ((1,), 1), ((40,), Fraction(1, 100))]
        )
        trunc = lemma3_truncate(f, Fraction(1, 10))
        assert trunc.f_prime.coefficient((40,)) == 0
        assert trunc.cutoff == 2
        assert trunc.distance_below(Fraction(1, 10))
        assert not trunc.distance_below(Fraction(1, 1000))

    def test_distance_check_matches_float_arithmetic(self):
        f = WalshPolynomial.from_terms(
            [((0,), 1), ((5,), Fraction(1, 4))]
        )
        trunc = lemma3_truncate(f, Fraction(1, 2))
        t = float(trunc.tail_frac)
        true_dist = (2 - 2 * (1 - t) ** 0.5) ** 0.5
        for delta in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
            assert trunc.distance_below(delta) == (true_dist < float(delta))

    @given(walsh_strategy(), st.fractions(min_value="1/60", max_value="3", max_denominator=60))
    @example(WalshPolynomial.from_terms([((i,), 1) for i in range(4)]), Fraction(1))
    @example(WalshPolynomial.from_terms([((0,), 7), ((1,), 4), ((2,), 4)]), Fraction(2, 3))
    @example(WalshPolynomial.from_terms([((0,), 1), ((9,), 5)]), Fraction(3, 2))
    @settings(max_examples=200)
    def test_truncation_matches_the_prefix_by_prefix_rule(self, f, delta):
        """The reference re-decides ``_distance_below`` on every prefix.
        The first two examples put a prefix's ``kept/total`` exactly at
        ``(1 - delta^2/2)^2`` (1/4 and 49/81), where that prefix must not
        stop the truncation; the third has ``delta^2 >= 2``."""
        if not f.terms:
            return
        total = f.norm_sq()
        ordered = sorted(f.terms, key=lambda t: (max(abs(i) for i in t[0]), sorted(t[0])))
        kept_sq = Fraction(0)
        for size, (_, c) in enumerate(ordered, start=1):
            kept_sq += c * c
            tail_frac = (total - kept_sq) / total
            if _distance_below(tail_frac, delta):
                break
        f_prime = WalshPolynomial(tuple(ordered[:size]))
        expected = Lemma3Truncation(f_prime, shift_cutoff(f_prime), kept_sq, tail_frac)
        assert lemma3_truncate(f, delta) == expected

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError):
            lemma3_truncate(
                WalshPolynomial.from_terms([((), 1), ((0,), 1)]), Fraction(1, 2)
            )

    @given(st.one_of(walsh_strategy(), walsh_strategy(max_index=5)),
           st.fractions(min_value="1/50", max_value="1/2", max_denominator=50))
    @settings(max_examples=100)
    def test_residual_correlation_is_exactly_zero(self, f, delta):
        """Small indices make shifts that carry one index set onto another
        common, so a cutoff below the largest of them fails here."""
        f = WalshPolynomial(tuple(
            (k, c) for k, c in f.terms if k != frozenset()
        ))
        if not f.terms:
            return
        trunc = lemma3_truncate(f, delta)
        assert trunc.overlap_past_cutoff() is None
        assert corr_tail_certificate(trunc.f_prime, trunc.cutoff, 10 ** 4) == 0

    @given(walsh_strategy(max_index=6), st.integers(0, 14))
    @settings(max_examples=100)
    def test_overlap_past_cutoff_matches_every_shift(self, p, cutoff):
        """Indices lie in [-6, 6], so no shift above 12 carries a set onto another."""
        sets = {k for k, _ in p.terms}
        every = next((m for m in range(cutoff + 1, 13)
                      if any(frozenset(i + m for i in k) in sets for k in sets)), None)
        trunc = Lemma3Truncation(p, cutoff, p.norm_sq(), Fraction(0))
        assert trunc.overlap_past_cutoff() == every


class TestBudget:
    def test_exact_budget_inside_spread(self):
        p = WalshPolynomial.from_terms([((0,), 1), ((1,), 1)])
        # (shift p, p) at m=1 picks up the overlap of index 1
        assert correlation_budget(p, 1, 100) == 1

    @given(walsh_strategy(max_index=6), st.integers(-3, 14), st.integers(0, 14))
    @settings(max_examples=60)
    def test_budget_sums_every_shift(self, p, lo, hi):
        every = sum((abs(inner_product(shift_power(p, m), p)) for m in range(lo, hi + 1)),
                    Fraction(0))
        assert correlation_budget(p, lo, hi) == every
