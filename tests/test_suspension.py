import sys
import threading
from fractions import Fraction
from pathlib import Path
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
from rankpair.serialize import correlation_table_from_tsv
from rankpair import suspension
from rankpair.suspension import CovarianceEstimate, _toeplitz_cholesky

from test_core import spec_strategy


def toeplitz(r):
    r = np.array([float(x) for x in r])
    return np.array([[r[abs(i - j)] for j in range(r.size)] for i in range(r.size)])


def first_failing_order(toep, slack):
    """The order of the first leading block of ``toep + slack I`` that
    Cholesky rejects, found by bisection, or None if the whole matrix
    factors.  Rejection never recovers with the order, as each block's
    factor contains the factors of the smaller ones."""
    def factors(k):
        try:
            np.linalg.cholesky(toep[:k, :k] + slack * np.eye(k))
        except np.linalg.LinAlgError:
            return False
        return True

    if factors(len(toep)):
        return None
    within, minor = 0, len(toep)
    while minor - within > 1:
        k = (within + minor) // 2
        if factors(k):
            within = k
        else:
            minor = k
    return minor


def golden_table():
    table = Path(__file__).parent / "golden" / "default" / "correlations.tsv"
    return correlation_table_from_tsv(table.read_text())


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

    def test_embeddable_sequence_takes_the_circulant_path(self):
        # the embedding (1, 1/4, 0, 0, 0, 0, 0, 1/4) has eigenvalues 1 + cos(2 pi k / 8) / 2
        s = exact_seq({0: 1, 1: Fraction(1, 4), 2: 0, 3: 0, 4: 0})
        sample = gaussian_sample(s, 5, SimulationConfig(sample_count=10, seed=0))
        assert sample.sampler == "circulant" and not sample.repaired
        assert sample.embedding_min == pytest.approx(0.5, abs=1e-15)
        assert sample.paths.shape == (10, 5)

    def test_unembeddable_table_takes_the_schur_factor(self):
        seq = golden_table()
        cfg = SimulationConfig(sample_count=50, seed=11)
        sample = gaussian_sample(seq, 41, cfg)
        assert sample.sampler == "schur" and sample.embedding_min < -0.75
        assert not sample.repaired
        toep = toeplitz([float(seq.midpoint(n)) for n in range(41)])
        z = np.random.Generator(np.random.Philox(key=11, counter=[0, 0, 0, 0]))
        expected = z.standard_normal((50, 41)) @ np.linalg.cholesky(toep).T
        # the Schur recursion rounds differently from LAPACK's Cholesky
        np.testing.assert_allclose(sample.paths, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("offset, repaired", [(0.5, True), (2.0, False)])
    def test_repair_boundary(self, offset, repaired):
        # shift r_0 of the golden L = 41 table so that the smallest eigenvalue
        # sits offset * slack below zero: within the slack the sample is
        # repaired, beyond it the table is rejected
        seq = golden_table()
        r = [Fraction(float(seq.midpoint(n))) for n in range(41)]
        slack = 1e-9  # 1e-9 * max(r_0, 1), and r_0 stays below 1
        r[0] -= Fraction(np.linalg.eigvalsh(toeplitz(r)).min() + offset * slack)
        assert r[0] < 1
        shifted_min = np.linalg.eigvalsh(toeplitz(r)).min()
        assert shifted_min == pytest.approx(-offset * slack, rel=1e-4)
        shifted = exact_seq(dict(enumerate(r)))
        cfg = SimulationConfig(sample_count=10, seed=0)
        if repaired:
            sample = gaussian_sample(shifted, 41, cfg)
            assert sample.sampler == "schur" and sample.repaired
        else:
            with pytest.raises(PSDError):
                gaussian_sample(shifted, 41, cfg)

    @given(st.integers(1, 60), st.floats(0.25, 2),
           st.dictionaries(st.integers(1, 59), st.floats(-1, 1), max_size=5))
    @example(5, 0.75, {1: 1e-9, 3: 0.75})
    @example(5, 0.25, {1: 1e-9, 3: 0.75})
    @settings(max_examples=300, deadline=None)
    def test_schur_factor_matches_cholesky(self, length, r0, lags):
        r = np.zeros(length)
        r[0] = r0
        for lag, value in lags.items():
            if lag < length:
                r[lag] = value
        toep = toeplitz(r)
        slack = 1e-9 * max(r0, 1.0)
        jittered = _toeplitz_cholesky(np.concatenate(([r0 + slack], r[1:])))
        order = jittered if isinstance(jittered, int) else None
        expected = first_failing_order(toep, slack)
        if order != expected:
            # the verdicts may split only on a leading block singular up to
            # rounding, where either one is right
            k = min(o for o in (order, expected) if o is not None)
            grazing = np.linalg.eigvalsh(toep[:k, :k] + slack * np.eye(k)).min()
            assert abs(grazing) <= 64 * np.finfo(float).eps * k * np.abs(r).max()
        smallest = np.linalg.eigvalsh(toep).min()
        if smallest > 1e-6:  # positive definite beyond any rounding
            factor = _toeplitz_cholesky(r)
            assert not isinstance(factor, int)
            # both factors are backward stable; their difference scales with
            # the condition number (measured at most 2.1e-15 / smallest)
            np.testing.assert_allclose(factor, np.linalg.cholesky(toep),
                                       rtol=0, atol=1e-13 / smallest)

    @pytest.mark.parametrize("count", [1, 3, 257])
    def test_odd_sample_counts(self, count):
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        cfg = SimulationConfig(sample_count=count, seed=5)
        a = gaussian_sample(s, 5, cfg)
        assert a.sampler == "circulant" and a.paths.shape == (count, 5)
        assert np.array_equal(a.paths, gaussian_sample(s, 5, cfg).paths)

    def test_circulant_paths_recover_the_covariance(self):
        # r(n) = (4/5)^n; every lag up to (length - 1) / 2 lies within 5.5
        # standard errors of a Bartlett-type bound on the estimator's variance
        length, paths = 257, 4000
        s = exact_seq({n: Fraction(4, 5) ** n for n in range(length)})
        sample = gaussian_sample(s, length, SimulationConfig(sample_count=paths, seed=2))
        assert sample.sampler == "circulant" and not sample.repaired
        r = np.array([float(s.midpoint(n)) for n in range(length)])
        padded = np.concatenate((np.zeros(length), r[:0:-1], r, np.zeros(length)))
        j = np.arange(-length + 1, length) + 2 * length - 1  # lag 0 sits at 2 * length - 1
        for k in range(length // 2 + 1):
            var = (padded[j] ** 2 + np.abs(padded[j + k] * padded[j - k])).sum()
            stderr = np.sqrt(var / (paths * (length - k)))
            assert abs(sample.sample_covariance(k) - r[k]) <= 5.5 * stderr, k

    def test_non_psd_rejected(self):
        # the second sequence's leading blocks are the identity up to order
        # 250; order 251 is the first to meet r(250) = 3/2
        late = {n: 0 for n in range(301)} | {0: 1, 250: Fraction(3, 2)}
        for entries, order in (({0: 1, 1: 2}, 2), (late, 251)):
            with pytest.raises(PSDError) as exc:
                gaussian_sample(exact_seq(entries), len(entries),
                                SimulationConfig(sample_count=10, seed=0))
            assert str(exc.value).endswith(f"first offending leading minor of order {order}")


def on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(suspension, "_usable_cpus", lambda: cpus)


class TestGaussianBlocks:
    """Blocks of 128 paths, each from its own Philox stream, on up to two
    workers; the draws and lagged sums do not depend on the worker count."""

    @pytest.mark.parametrize("count", [1, 127, 128, 129, 257])
    @pytest.mark.parametrize("table", ["circulant", "schur"])
    def test_one_and_two_workers_agree_bit_for_bit(self, monkeypatch, count, table):
        if table == "circulant":
            seq, length = exact_seq({0: 1, 1: Fraction(1, 2), **dict.fromkeys(range(2, 9), 0)}), 9
        else:
            seq, length = golden_table(), 41
        cfg = SimulationConfig(sample_count=count, seed=4)
        samples = []
        for cpus in (1, 2):
            on_cpus(monkeypatch, cpus)
            samples.append(gaussian_sample(seq, length, cfg))
        one, two = samples
        assert one.sampler == two.sampler == table
        assert one.blocks == two.blocks == -(-count // 128)
        assert (one.workers, two.workers) == (1, min(2, one.blocks))
        assert np.array_equal(one.paths, two.paths)
        assert [one.sample_covariance(k) for k in range(length)] == \
            [two.sample_covariance(k) for k in range(length)]

    def test_block_streams(self):
        # white noise: every eigenvalue of the size-8 embedding is 1, so block
        # b's rows are the real, then the imaginary parts of fft(z / sqrt(8))
        # with z drawn from the Philox stream at counter [0, 0, b, 0]
        white = exact_seq({0: 1, 1: 0, 2: 0, 3: 0, 4: 0})
        sample = gaussian_sample(white, 5, SimulationConfig(sample_count=200, seed=9))
        for b, rows in ((0, 128), (1, 72)):
            gen = np.random.Generator(np.random.Philox(key=9, counter=[0, 0, b, 0]))
            z = gen.standard_normal((rows // 2, 8, 2)).view(np.complex128)[..., 0]
            y = np.fft.fft(z * np.sqrt(1 / 8), axis=1)[:, :5]
            block = sample.paths[128 * b : 128 * b + rows]
            np.testing.assert_allclose(block, np.concatenate((y.real, y.imag)), rtol=0, atol=1e-15)
        # the Schur sampler follows the same rule: block b's rows are the
        # normals of the stream at counter [0, 0, b, 0] times the factor
        seq = golden_table()
        sample = gaussian_sample(seq, 41, SimulationConfig(sample_count=200, seed=9))
        assert sample.sampler == "schur"
        factor = np.linalg.cholesky(toeplitz([float(seq.midpoint(n)) for n in range(41)]))
        for b, rows in ((0, 128), (1, 72)):
            gen = np.random.Generator(np.random.Philox(key=9, counter=[0, 0, b, 0]))
            expected = gen.standard_normal((rows, 41)) @ factor.T
            block = sample.paths[128 * b : 128 * b + rows]
            # the Schur recursion rounds differently from LAPACK's Cholesky
            np.testing.assert_allclose(block, expected, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("table", ["circulant", "schur"])
    def test_a_block_does_not_depend_on_later_ones(self, table):
        if table == "circulant":
            seq, length = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0}), 5
        else:
            seq, length = golden_table(), 41
        short = gaussian_sample(seq, length, SimulationConfig(sample_count=256, seed=6))
        long = gaussian_sample(seq, length, SimulationConfig(sample_count=300, seed=6))
        assert short.sampler == long.sampler == table
        assert np.array_equal(short.paths, long.paths[:256])

    def test_every_block_is_drawn_once_under_contention(self, monkeypatch):
        # eight workers on many tiny blocks, switching threads as often as
        # the interpreter allows: a block given to two workers shows in the
        # call count, a block given to none leaves its rows and slot unwritten
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        cfg = SimulationConfig(sample_count=128 * 60 + 5, seed=2)
        on_cpus(monkeypatch, 1)
        expected = gaussian_sample(s, 5, cfg)
        calls = []
        block_power = suspension._block_power
        monkeypatch.setattr(suspension, "_block_power",
                            lambda rows, nfft: calls.append(1) or block_power(rows, nfft))
        monkeypatch.setattr(suspension, "_WORKERS", 8)
        on_cpus(monkeypatch, 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sample = gaussian_sample(s, 5, cfg)
        finally:
            sys.setswitchinterval(interval)
        assert (sample.workers, len(calls)) == (8, 61)
        assert np.array_equal(sample.paths, expected.paths)
        assert np.array_equal(sample.lagged, expected.lagged)

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        on_cpus(monkeypatch, 1)
        monkeypatch.setattr(suspension.threading, "Thread", no_thread)
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        sample = gaussian_sample(s, 5, SimulationConfig(sample_count=500, seed=1))
        assert (sample.blocks, sample.workers) == (4, 1)

    @pytest.mark.parametrize("failing", ["worker", "caller"])
    def test_a_block_error_reaches_the_caller(self, monkeypatch, failing):
        """The exception raised in a block is the one the caller sees, and
        every thread has joined when it does."""
        on_cpus(monkeypatch, 2)
        error = RuntimeError("block failed")
        block_power = suspension._block_power
        # each thread waits at its first block until the other has one too,
        # so both are running when the error is raised
        both_running = threading.Barrier(2, timeout=10)
        started = set()

        def failing_power(rows, nfft):
            me = threading.current_thread()
            if me not in started:
                started.add(me)
                both_running.wait()
            if (me is not threading.main_thread()) == (failing == "worker"):
                raise error
            return block_power(rows, nfft)

        monkeypatch.setattr(suspension, "_block_power", failing_power)
        baseline = threading.active_count()
        s = exact_seq({0: 1, 1: Fraction(1, 2), 2: 0, 3: 0, 4: 0})
        with pytest.raises(RuntimeError) as exc:
            gaussian_sample(s, 5, SimulationConfig(sample_count=1000, seed=1))
        assert exc.value is error
        assert threading.active_count() == baseline


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

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_support_cells_ascend_each_with_its_weight(self, data):
        """Multi-level functions on random specs, their levels in any order:
        the cells of ``supp f`` strictly ascend, each with its own weight."""
        spec = data.draw(spec_strategy())
        stage = data.draw(st.integers(1, spec.max_depth))
        depth = data.draw(st.integers(stage, spec.max_depth))
        weight = st.integers(-3, 3).filter(bool).map(Fraction)
        coeffs = data.draw(st.dictionaries(st.integers(0, spec.heights()[stage - 1] - 1), weight,
                                           min_size=1))
        f = LevelFunction(stage, tuple(data.draw(st.permutations(list(coeffs.items())))))
        cells, weights = suspension._support(spec, f, depth)
        assert np.all(np.diff(cells) > 0)
        assert list(zip(cells.tolist(), weights.tolist())) == sorted(
            (p + level, float(c)) for p in occurrence_set(spec, stage, depth)
            for level, c in coeffs.items())

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
        assert pairs.escape_fraction == abs(steps) / spec.heights()[2]

    def test_determinism(self, spec):
        f = LevelFunction.indicator(1)
        cfg = SimulationConfig(sample_count=50, seed=3)
        a = poisson_sample_and_push(spec, f, 3, 2.0, 17, cfg)
        b = poisson_sample_and_push(spec, f, 3, 2.0, 17, cfg)
        assert np.array_equal(a.counts, b.counts)
        assert np.array_equal(a.cells, b.cells)
        assert a.escape_fraction == b.escape_fraction
        assert linear_statistic_covariance(a, f) == linear_statistic_covariance(b, f)

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("steps", [-40, 0, 3, 60])
    def test_scoring_matches_per_point_reference(self, spec, monkeypatch, steps, chunk):
        """Per-cell tables in chunks of whole configurations give exactly
        what scoring every point by its level gives (intensity 2, so the
        Campbell scale is 1/2).  Steps 60 pushes cells out of the tower; with
        chunks of 7 points some configurations exceed a chunk, and empty
        ones fall between chunks."""
        if chunk is not None:
            monkeypatch.setattr(suspension, "_CHUNK", chunk)
        f = LevelFunction.from_dict(2, {0: Fraction(1), 5: Fraction(-1, 2), 20: Fraction(2)})
        cfg = SimulationConfig(sample_count=1000, seed=9)
        pairs = poisson_sample_and_push(spec, f, 3, 2.0, steps, cfg)
        assert pairs.counts.min() == 0 and pairs.counts.max() > 7
        assert pairs.cells.dtype == np.int32
        draw = suspension._stream(cfg.seed, 2).integers(0, pairs.region.size, pairs.cells.size)
        assert np.array_equal(pairs.cells, draw)

        def per_point(levels):
            values = suspension._values_at(pairs.support, pairs.weights, levels)
            owner = np.repeat(np.arange(pairs.n_configs), pairs.counts)
            return np.bincount(owner, weights=values, minlength=pairs.n_configs)

        n1, n2 = per_point(pairs.levels), per_point(pairs.levels + steps)
        prods = (n1 - n1.mean()) * (n2 - n2.mean())
        n = pairs.n_configs
        est = float(prods.mean()) * n / (n - 1) * 0.5
        stderr = float(prods.std(ddof=1)) / np.sqrt(n) * 0.5
        z = NormalDist().inv_cdf(0.975)
        got = linear_statistic_covariance(pairs, f)
        assert got.estimate == est and got.stderr == stderr
        assert got.ci == (est - z * stderr, est + z * stderr)

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
        est = CovarianceEstimate(0.5, (0.4, 0.6), 0.05)
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
        # each sampler is capped on its largest array: the paths; on the
        # circulant path the _WORKERS * _BLOCK_ROWS rows in flight and their
        # transforms; on the Schur path the L^2 factor
        white = exact_seq({**dict.fromkeys(range(16385), 0), 0: 1})
        with pytest.raises(MemoryCapError, match="over the cap"):
            gaussian_sample(white, 4097, SimulationConfig(sample_count=4096))
        with pytest.raises(MemoryCapError, match="over the cap"):
            gaussian_sample(white, 1, SimulationConfig(sample_count=10 ** 8))
        with pytest.raises(MemoryCapError, match="over the cap"):
            gaussian_sample(white, 16385, SimulationConfig(sample_count=129))
        unembeddable = exact_seq({**dict.fromkeys(range(4097), 0), 0: 1, 1: Fraction(9, 10)})
        with pytest.raises(MemoryCapError, match="over the cap"):
            gaussian_sample(unembeddable, 4097, SimulationConfig(sample_count=1))
        # the circulant sampler holds no L^2 array, so L^2 past the cap samples
        assert gaussian_sample(white, 4097, SimulationConfig(sample_count=2)).sampler == "circulant"
