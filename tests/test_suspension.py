from fractions import Fraction

import numpy as np
import pytest

from rankpair import (
    CorrelationSequence,
    EscapeCapError,
    LevelFunction,
    MemoryCapError,
    PSDError,
    RankOneSpec,
    SimulationConfig,
    StageSpec,
    correlation_sequence,
    gaussian_sample,
    linear_statistic_covariance,
    poisson_sample_and_push,
)
from rankpair.core import occurrence_set
from rankpair.suspension import CovarianceEstimate


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
        # the second sequence's leading blocks are the identity up to order
        # 250; order 251 is the first to meet r(250) = 3/2
        late = {n: 0 for n in range(301)} | {0: 1, 250: Fraction(3, 2)}
        for entries, order in (({0: 1, 1: 2}, 2), (late, 251)):
            with pytest.raises(PSDError) as exc:
                gaussian_sample(exact_seq(entries), len(entries),
                                SimulationConfig(sample_count=10, seed=0))
            assert str(exc.value).endswith(f"first offending leading minor of order {order}")


class TestPoisson:
    def test_escape_cap(self, spec):
        with pytest.raises(EscapeCapError):
            poisson_sample_and_push(
                spec, LevelFunction.indicator(1), 1, 1.0, 5,
                SimulationConfig(sample_count=10, seed=0),
            )

    def test_region_matches_brute_force(self, spec):
        f = LevelFunction.from_dict(2, {0: Fraction(1), 5: Fraction(-1, 2), 20: Fraction(2)})
        depth = 3
        h = spec.heights()[depth - 1]
        occ = occurrence_set(spec, f.stage, depth)
        supp = {p + level for p in occ for level in f.levels}
        value = dict(f.coefficients)
        cfg = SimulationConfig(sample_count=10, seed=0)
        for steps in (-40, -17, 0, 3, 34, 60):
            pairs = poisson_sample_and_push(spec, f, depth, 1.0, steps, cfg)
            assert pairs.support.tolist() == sorted(supp)
            assert pairs.weights.tolist() == [
                float(value[x - max(p for p in occ if p <= x)]) for x in sorted(supp)
            ]
            region = {x for x in range(h) if x in supp or x + steps in supp}
            assert pairs.region.tolist() == sorted(region), steps

    def test_point_count_follows_region_measure(self, spec):
        f = LevelFunction.indicator(1)
        cfg = SimulationConfig(sample_count=20000, seed=2)
        pairs = poisson_sample_and_push(spec, f, 3, 2.0, 17, cfg)
        mean = 2.0 * cfg.sample_count * float(spec.widths()[2]) * pairs.region.size
        assert pairs.region.size == 8  # supp f is the 8 occurrences; T^-17 adds none
        assert abs(pairs.levels.size - mean) <= 5.5 * np.sqrt(mean)
        assert np.isin(pairs.levels, pairs.region).all()

    @pytest.mark.parametrize("steps", [-17, 0, 17, 34])
    def test_escape_fraction_is_whole_tower_share(self, spec, steps):
        cfg = SimulationConfig(sample_count=20000, seed=4)
        pairs = poisson_sample_and_push(spec, LevelFunction.indicator(1), 3, 2.0, steps, cfg)
        h = spec.heights()[2]
        p = abs(steps) / h
        points = 2.0 * cfg.sample_count * float(spec.widths()[2]) * h
        assert abs(pairs.escape_fraction - p) <= 5.5 * np.sqrt(p * (1 - p) / points)

    def test_determinism(self, spec):
        f = LevelFunction.indicator(1)
        cfg = SimulationConfig(sample_count=50, seed=3)
        a = poisson_sample_and_push(spec, f, 3, 2.0, 17, cfg)
        b = poisson_sample_and_push(spec, f, 3, 2.0, 17, cfg)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.config_index, b.config_index)
        assert a.escape_fraction == b.escape_fraction
        assert linear_statistic_covariance(a, f) == linear_statistic_covariance(b, f)

    def test_covariance_matches_exact_correlation(self, spec):
        f = LevelFunction.indicator(1)
        cfg = SimulationConfig(sample_count=20000, seed=11)
        exact = correlation_sequence(spec, f, [0, 17, 34], tolerance=Fraction(0))
        for steps in (-17, 0, 17, 34):
            pairs = poisson_sample_and_push(spec, f, 3, 2.0, steps, cfg)
            est = linear_statistic_covariance(pairs, f)
            assert est.contains(exact.entries[abs(steps)][0]), (
                steps, est.estimate, exact.entries[abs(steps)][0]
            )

    def test_covariance_rejects_another_function(self, spec):
        f = LevelFunction.indicator(1)
        pairs = poisson_sample_and_push(spec, f, 3, 2.0, 17,
                                        SimulationConfig(sample_count=10, seed=0))
        with pytest.raises(ValueError, match="not the function"):
            linear_statistic_covariance(pairs, LevelFunction.indicator(2))

    def test_zero_lag_is_mean_measure(self, spec):
        # sanity for the Campbell normalization: variance / intensity = |f|^2
        f = LevelFunction.indicator(1)
        cfg = SimulationConfig(sample_count=20000, seed=5)
        pairs = poisson_sample_and_push(spec, f, 3, 4.0, 0, cfg)
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
        f = LevelFunction.indicator(1)
        with pytest.raises(ValueError):
            poisson_sample_and_push(spec, f, 3, 0.0, 0, cfg)
        for depth in (0, spec.max_depth + 1):
            with pytest.raises(ValueError, match=f"depth {depth} outside"):
                poisson_sample_and_push(spec, f, depth, 1.0, 0, cfg)
        with pytest.raises(ValueError, match="level 40 outside"):
            poisson_sample_and_push(spec, LevelFunction.indicator(2, 40), 3, 1.0, 0, cfg)

    def test_memory_caps_refuse_before_allocating(self, spec):
        f = LevelFunction.indicator(1)
        with pytest.raises(MemoryCapError, match="expected points"):
            poisson_sample_and_push(spec, f, 3, 1e12, 0, SimulationConfig(sample_count=10))
        wide = RankOneSpec(stages=(StageSpec(1000, (0,) * 1000),) * 3)
        with pytest.raises(MemoryCapError, match="cells at depth 4"):
            poisson_sample_and_push(wide, f, 4, 1.0, 0, SimulationConfig(sample_count=10))
        s = exact_seq({0: 1})
        with pytest.raises(MemoryCapError, match="over the cap"):
            gaussian_sample(s, 5000, SimulationConfig(sample_count=10))
        with pytest.raises(MemoryCapError, match="over the cap"):
            gaussian_sample(s, 1, SimulationConfig(sample_count=10 ** 8))
