"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with ``-s`` or read the
captured output) and asserts the criterion at its stated tolerance.
Random inputs are generated from fixed seeds so every run checks the
same cases.
"""

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from rankpair import (
    CorrelationSequence,
    LevelFunction,
    PolynomialSpec,
    RankOneSpec,
    SimulationConfig,
    StageSpec,
    WalshPolynomial,
    autocorrelation,
    chaos_exp_coefficients,
    corr_functional,
    correlation_sequence,
    design_generic_stage,
    fejer_density,
    gaussian_sample,
    generate_schedule,
    lemma3_truncate,
    linear_statistic_covariance,
    plan_pair,
    poisson_sample_and_push,
    product_correlation,
    shift_power,
    trig_polynomial_density,
    verify_polynomial_limit,
)
from rankpair.walsh import inner_product

from conftest import oracle_autocorrelation

HORIZON = 10 ** 4


def report(n, ok, detail):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def planned():
    sched = generate_schedule(growth=8, horizon=HORIZON)
    return plan_pair(sched)


@pytest.fixture(scope="module")
def product_table(planned):
    seq_f = correlation_sequence(
        planned.spec_s, planned.f, range(0, HORIZON + 1), subject="f"
    )
    seq_g = correlation_sequence(
        planned.spec_t, planned.g, range(0, HORIZON + 1), subject="g"
    )
    return seq_f, seq_g, product_correlation(seq_f, seq_g)


def test_criterion_1_product_vanishing(planned, product_table):
    start = time.monotonic()
    _, _, prod = product_table
    n0 = planned.n_zero_threshold
    bad = [n for n in range(n0, HORIZON + 1) if prod.entries[n] != (0, 0)]
    elapsed = time.monotonic() - start
    ok = planned.pair_sound() and n0 <= 100 and not bad and elapsed < 60
    report(1, ok, f"n0={n0}, nonzero products in [n0, 1e4]: {len(bad)}, "
                  f"{elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    rng = random.Random(20260826)
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for _ in range(5):
        stages = tuple(
            StageSpec(
                cuts=(r := rng.randint(2, 3)),
                spacers=tuple(rng.randint(0, 3) for _ in range(r)),
            )
            for _ in range(rng.randint(1, 6))
        )
        spec = RankOneSpec(stages=stages)
        f = LevelFunction.indicator(1)
        engine = correlation_sequence(spec, f, range(0, 201))
        for n in range(0, 201):
            checked += 1
            if engine.entries[n] != oracle_autocorrelation(spec, f, n):
                mismatches += 1
    elapsed = time.monotonic() - start
    report(2, mismatches == 0,
           f"{checked} brackets on 5 random specs, {mismatches} mismatches, "
           f"{elapsed:.1f}s")


def test_criterion_3_rigidity_deficits():
    deficits = []
    for r in (8, 16, 32, 64):
        spec = RankOneSpec(
            stages=(
                StageSpec(2, (1, 1)),
                StageSpec(r, (0,) * r),
                StageSpec(2, (500, 500)),
            )
        )
        f = LevelFunction.indicator(1)
        h = spec.heights()[1]  # the rigidity time installed by the r-cut stage
        lo, hi = autocorrelation(spec, f, h, tolerance=Fraction(0))
        nsq = f.norm_sq(spec)
        assert lo == hi
        assert lo >= (1 - Fraction(1, r)) * nsq
        deficits.append(nsq - lo)
    ok = all(a >= b for a, b in zip(deficits, deficits[1:]))
    report(3, ok, f"deficits {[str(d) for d in deficits]} non-increasing")


def test_criterion_4_polynomial_limit():
    poly = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
    pre = StageSpec(2, (2, 2))
    h = 6
    generic = design_generic_stage(h, (3, 10 ** 6), poly, 64, max_position=3)
    spec = RankOneSpec(
        stages=(pre, generic, StageSpec(2, (10 ** 4, 10 ** 4)))
    )
    f = LevelFunction.indicator(1)
    res = verify_polynomial_limit(spec, h, poly, f, f)
    # the criterion stated directly, from exact full-spec correlations
    seq = correlation_sequence(spec, f, [0, 1, h], tolerance=Fraction(0))
    lhs = seq.entries[h][0]
    rhs = sum(
        (a * seq.entries[abs(z)][0] for z, a in poly.coefficients), Fraction(0)
    )
    bound = f.norm_sq(spec) * (Fraction(2, 64) + Fraction(0))
    ok = res.satisfied and abs(lhs - rhs) <= bound
    report(4, ok, f"|{lhs} - {rhs}| = {abs(lhs - rhs)} <= {bound}")


def test_criterion_5_correlation_budget(planned, product_table):
    _, _, prod = product_table
    n0 = planned.n_zero_threshold
    total = corr_functional(prod, (1, HORIZON))
    head = (
        corr_functional(prod, (1, n0 - 1)) if n0 > 1 else (Fraction(0),) * 2
    )
    ok = total == head
    for eps in (Fraction(1, 10), Fraction(1, 10 ** 6)):
        # assign the interval budgets eps/2^(k+1); certified-zero intervals
        # consume none of them
        budgets = [eps / 2 ** (k + 1) for k in range(len(planned.cert_s.zero_intervals))]
        spent = Fraction(0)
        for k, z in enumerate(planned.cert_s.zero_intervals):
            lo, hi = z.checked
            if lo <= hi:
                contrib = corr_functional(prod, (max(lo, 1), min(hi, HORIZON)))
                ok = ok and contrib[1] <= budgets[k]
                spent += contrib[1]
        ok = ok and total[1] < eps and spent < eps
    report(5, ok, f"budget over [1, 1e4] = {total}, equals head sum, "
                  f"< every preset epsilon")


def test_criterion_6_spectral_witness(product_table):
    seq_f, seq_g, prod = product_table
    est = trig_polynomial_density(prod, 2 ** 12)
    rho0 = float(prod.midpoint(0))
    ok = abs(est.grid_mean() - rho0) <= 1e-9 and est.min_value() >= -1e-9
    fejer_mins = []
    for seq in (seq_f, seq_g):
        fe = fejer_density(seq, order=256, grid=2 ** 12)
        fejer_mins.append(fe.min_value())
        ok = ok and fe.min_value() >= -1e-9
    report(6, ok, f"grid mean err {abs(est.grid_mean() - rho0):.2e}, "
                  f"min {est.min_value():.2e}, factor Fejér mins "
                  f"{[f'{m:.2e}' for m in fejer_mins]}")


def test_criterion_7_suspension_first_chaos(planned):
    start = time.monotonic()
    spec = planned.spec_s
    f = planned.f
    zero_lag = 10          # inside the certified-zero interval [1, 16]
    rigidity = planned.cert_s.rigidity_times[0].time
    exact = correlation_sequence(
        spec, f, [0, zero_lag, rigidity], tolerance=Fraction(0)
    )
    config = SimulationConfig(sample_count=10 ** 5, seed=20260826)
    ok = True
    details = []
    for steps in (0, zero_lag, rigidity):
        pairs = poisson_sample_and_push(spec, f, 3, 2.0, steps, config)
        est = linear_statistic_covariance(pairs, f)
        hit = est.contains(exact.entries[steps][0])
        ok = ok and hit
        details.append(f"n={steps}: {est.estimate:.4f} vs "
                       f"{exact.entries[steps][0]} ({'in' if hit else 'OUT'})")
    cov = correlation_sequence(spec, f, range(0, 41), tolerance=Fraction(0))
    sample = gaussian_sample(cov, 41, config)
    gauss_err = max(
        abs(sample.sample_covariance(lag) - float(cov.midpoint(lag)))
        for lag in range(21)
    )
    elapsed = time.monotonic() - start
    ok = ok and gauss_err <= 0.01 and elapsed < 300
    report(7, ok, "; ".join(details) + f"; gaussian max err {gauss_err:.4f}; "
                  f"{elapsed:.0f}s")


def test_criterion_8_lemma3_exactness():
    rng = random.Random(812)
    failures = 0
    for case in range(100):
        terms = []
        for _ in range(rng.randint(1, 5)):
            idx = tuple(
                rng.sample(range(-25, 26), rng.randint(1, 3))
            )
            coeff = Fraction(rng.randint(-8, 8), rng.randint(1, 8))
            if coeff:
                terms.append((idx, coeff))
        f = WalshPolynomial.from_terms(terms or [((0,), Fraction(1))])
        f = WalshPolynomial(
            tuple((k, c) for k, c in f.terms if k != frozenset())
        )
        if not f.terms:
            f = WalshPolynomial.from_terms([((0,), Fraction(1))])
        delta = Fraction(1, rng.randint(2, 40))
        trunc = lemma3_truncate(f, delta)
        m_spot = [trunc.cutoff + 1, trunc.cutoff + 123, HORIZON]
        exact_zero = all(
            inner_product(shift_power(trunc.f_prime, m), trunc.f_prime) == 0
            for m in m_spot
        )
        from rankpair import corr_tail_certificate

        whole_range = corr_tail_certificate(trunc.f_prime, trunc.cutoff, HORIZON)
        if not (exact_zero and whole_range == 0
                and trunc.distance_below(delta)):
            failures += 1
    report(8, failures == 0, f"100 randomized truncations, {failures} failures")


def test_criterion_9_chaos_convergence():
    base = CorrelationSequence(
        entries={
            0: (Fraction(1), Fraction(1)),
            5: (Fraction(1, 2), Fraction(1, 2)),
        },
        norm_sq=Fraction(1),
    )
    chaos = chaos_exp_coefficients(base, chaos_cap=10)
    got = chaos.sequence.entries[5][0]
    target = math.exp(0.5) - 1
    err = abs(float(got) - target)
    true_tail = target - float(got)
    tail_bound = float(chaos.tails[5])
    ok = err < 1e-9 and tail_bound >= true_tail > 0
    report(9, ok, f"|partial - (e^0.5 - 1)| = {err:.2e}, "
                  f"tail bound {tail_bound:.2e} >= true tail {true_tail:.2e}")
