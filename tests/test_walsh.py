from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rankpair import (
    WalshPolynomial,
    corr_tail_certificate,
    inner_product,
    lemma3_truncate,
    shift_power,
)
from rankpair.walsh import correlation_budget, shift_cutoff


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

    @given(walsh_strategy())
    @settings(max_examples=50)
    def test_shifts_beyond_spread_are_orthogonal(self, p):
        cutoff = shift_cutoff(p)
        for m in (cutoff + 1, cutoff + 2, cutoff + 17):
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

    def test_rejects_nonzero_mean(self):
        with pytest.raises(ValueError):
            lemma3_truncate(
                WalshPolynomial.from_terms([((), 1), ((0,), 1)]), Fraction(1, 2)
            )

    @given(walsh_strategy(), st.fractions(min_value="1/50", max_value="1/2",
                                          max_denominator=50))
    @settings(max_examples=60)
    def test_residual_correlation_is_exactly_zero(self, f, delta):
        f = WalshPolynomial(tuple(
            (k, c) for k, c in f.terms if k != frozenset()
        ))
        if not f.terms:
            return
        trunc = lemma3_truncate(f, delta)
        assert corr_tail_certificate(trunc.f_prime, trunc.cutoff, 10 ** 4) == 0


class TestBudget:
    def test_exact_budget_inside_spread(self):
        p = WalshPolynomial.from_terms([((0,), 1), ((1,), 1)])
        # (shift p, p) at m=1 picks up the overlap of index 1
        assert correlation_budget(p, 1, 100) == 1
