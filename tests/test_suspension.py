from fractions import Fraction

import numpy as np
import pytest

from rankpair import (
    CorrelationSequence,
    CovarianceEstimate,
    EscapeCapError,
    LevelFunction,
    PSDError,
    RankOneSpec,
    SimulationConfig,
    StageSpec,
    correlation_sequence,
    gaussian_sample,
    level_values,
    linear_statistic_covariance,
    occurrence_set,
    poisson_sample_and_push,
)


def exact_seq(entries):
    return CorrelationSequence(
        entries={n: (Fraction(v), Fraction(v)) for n, v in entries.items()},
        norm_sq=Fraction(1),
    )


@pytest.fixture
def spec():
    # base doubling, a four-column rigidity stage, then a blocking stage:
    # occurrence spacing 17 in the depth-3 tower (height 136)
    return RankOneSpec(
        stages=(
            StageSpec(2, (16, 16)),
            StageSpec(4, (0, 0, 0, 0)),
            StageSpec(2, (10 ** 4, 10 ** 4)),
        )
    )


class TestGaussian:
    def test_determinism(self):
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        cfg = SimulationConfig(sample_count=100, seed=7)
        a = gaussian_sample(s, 5, cfg)
        b = gaussian_sample(s, 5, cfg)
        assert np.array_equal(a.paths, b.paths)

    def test_seed_changes_draws(self):
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        a = gaussian_sample(s, 5, SimulationConfig(sample_count=100, seed=7))
        b = gaussian_sample(s, 5, SimulationConfig(sample_count=100, seed=8))
        assert not np.array_equal(a.paths, b.paths)

    def test_covariance_recovered(self):
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        sample = gaussian_sample(
            s, 5, SimulationConfig(sample_count=20000, seed=1)
        )
        assert sample.sample_covariance(0) == pytest.approx(1.0, abs=0.05)
        assert sample.sample_covariance(1) == pytest.approx(0.5, abs=0.05)
        assert sample.sample_covariance(2) == pytest.approx(0.0, abs=0.05)

    def test_lagged_sums_match_direct_products(self):
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        sample = gaussian_sample(s, 5, SimulationConfig(sample_count=300, seed=3))
        x = sample.paths
        for lag in range(5):
            direct = float((x[:, : 5 - lag] * x[:, lag:]).mean())
            # FFT sums round differently; 1e-12 is far above float64 rounding here
            assert sample.sample_covariance(lag) == pytest.approx(direct, abs=1e-12)
        with pytest.raises(ValueError):
            sample.sample_covariance(5)

    def test_toeplitz_matches_loop(self):
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: Fraction(1, 4), 3: 0})
        r = [float(s.midpoint(n)) for n in range(4)]
        loop = np.array([[r[abs(i - j)] for j in range(4)] for i in range(4)])
        sample = gaussian_sample(s, 4, SimulationConfig(sample_count=10, seed=0))
        assert np.array_equal(sample.covariance, loop)

    def test_non_psd_rejected(self):
        s = exact_seq({0: 1, 1: 2})
        with pytest.raises(PSDError) as exc:
            gaussian_sample(s, 2, SimulationConfig(sample_count=10, seed=0))
        assert "leading minor" in str(exc.value)


class TestPoisson:
    def test_escape_cap(self, spec):
        with pytest.raises(EscapeCapError):
            poisson_sample_and_push(
                spec, 1, 1.0, 5, SimulationConfig(sample_count=10, seed=0)
            )

    def test_level_values_match_occurrences(self, spec):
        f = LevelFunction.indicator(1)
        val = level_values(spec, f, 3)
        occ = occurrence_set(spec, 1, 3)
        assert set(np.nonzero(val)[0]) == set(occ.positions)
        assert val.sum() == len(occ.positions)

    def test_determinism(self, spec):
        cfg = SimulationConfig(sample_count=50, seed=3)
        a = poisson_sample_and_push(spec, 3, 2.0, 17, cfg)
        b = poisson_sample_and_push(spec, 3, 2.0, 17, cfg)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.pushed, b.pushed)

    def test_covariance_matches_exact_correlation(self, spec):
        f = LevelFunction.indicator(1)
        cfg = SimulationConfig(sample_count=20000, seed=11)
        exact = correlation_sequence(spec, f, [0, 17, 34], tolerance=Fraction(0))
        for steps in (0, 17, 34):
            pairs = poisson_sample_and_push(spec, 3, 2.0, steps, cfg)
            est = linear_statistic_covariance(pairs, f)
            assert est.contains(exact.entries[steps][0]), (
                steps, est.estimate, exact.entries[steps][0]
            )

    def test_zero_lag_is_mean_measure(self, spec):
        # sanity for the Campbell normalization: variance / intensity = |f|^2
        f = LevelFunction.indicator(1)
        cfg = SimulationConfig(sample_count=20000, seed=5)
        pairs = poisson_sample_and_push(spec, 3, 4.0, 0, cfg)
        est = linear_statistic_covariance(pairs, f)
        assert est.estimate == pytest.approx(float(f.norm_sq(spec)), abs=0.05)

    def test_overlap_when_bracket_contains_ci(self):
        est = CovarianceEstimate(0.5, (0.4, 0.6), 0.05, 100, 0.0)
        assert not est.contains(0) and not est.contains(1)
        assert est.overlaps(Fraction(0), Fraction(1))
        assert not est.overlaps(Fraction(7, 10), Fraction(1))


class TestConfig:
    def test_validation(self, spec):
        with pytest.raises(ValueError):
            SimulationConfig(sample_count=0, seed=0)
        cfg = SimulationConfig(sample_count=10, seed=0)
        with pytest.raises(ValueError):
            poisson_sample_and_push(spec, 3, 0.0, 0, cfg)
        for depth in (0, spec.max_depth + 1):
            with pytest.raises(ValueError, match=f"depth {depth} outside"):
                poisson_sample_and_push(spec, depth, 1.0, 0, cfg)
