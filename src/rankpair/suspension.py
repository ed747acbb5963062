"""Monte-Carlo checks of the Gaussian and Poisson suspension layers.

The Gaussian sampler draws stationary sequences whose covariance is a
given correlation sequence; the Poisson sampler throws configurations on
a finite tower region and pushes every point along the orbit, so linear
statistics reproduce the base correlations through the first chaos
(Campbell's formula).

Randomness uses counter-based Philox streams: stream 0 drives Gaussian
paths, stream 1 Poisson configuration sizes, stream 2 point positions.
Identical configs give bit-identical statistics; replicas under distinct
streams can run concurrently and aggregate by pure reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .core import EscapeCapError, LevelFunction, RankOneSpec, occurrence_set
from .correlation import CorrelationSequence, CoverageError

_PSD_SLACK = 1e-9
_ESCAPE_CAP = 0.5   # largest expected escaping fraction a Poisson push accepts
_CONFIDENCE = 0.95  # level of the normal interval around a covariance estimate


class PSDError(ValueError):
    pass


@dataclass(frozen=True)
class SimulationConfig:
    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, index]))


_FFT_ROWS = 256  # paths per transform, which bounds the complex buffer


def _lagged_sums(x: np.ndarray) -> np.ndarray:
    """``out[k] = sum over paths and t of x[t] * x[t + k]`` for every lag,
    from one zero-padded real FFT per path: the padding to at least
    ``2 * length - 1`` makes the circular autocorrelation a linear one."""
    length = x.shape[1]
    nfft = 1 << (2 * length - 1).bit_length()
    power = np.zeros(nfft // 2 + 1)
    for start in range(0, x.shape[0], _FFT_ROWS):
        spec = np.fft.rfft(x[start : start + _FFT_ROWS], n=nfft, axis=1)
        power += (spec.real ** 2 + spec.imag ** 2).sum(axis=0)
    return np.fft.irfft(power, n=nfft)[:length]


@dataclass
class GaussianSample:
    paths: np.ndarray          # (sample_count, length)
    covariance: np.ndarray     # the (possibly repaired) Toeplitz matrix used
    repaired: bool
    _lagged: np.ndarray | None = field(default=None, init=False, repr=False)

    def sample_covariance(self, lag: int) -> float:
        """Average of lagged products over both samples and time.

        The first call computes the lagged sums of every lag at once and
        keeps them on the sample.
        """
        samples, length = self.paths.shape
        if not 0 <= lag < length:
            raise ValueError(f"lag {lag} outside [0, {length})")
        if self._lagged is None:
            self._lagged = _lagged_sums(self.paths)
        return float(self._lagged[lag]) / (samples * (length - lag))


def gaussian_sample(
    cov: CorrelationSequence, length: int, config: SimulationConfig
) -> GaussianSample:
    """Stationary zero-mean Gaussian paths with the given covariance.

    The truncated Toeplitz matrix is checked for positive semidefiniteness;
    eigenvalues negative by at most a relative 1e-9 are projected to zero
    (truncating a genuine covariance can graze zero), anything worse is an
    error naming the first offending leading principal minor.
    """
    if not cov.covers(0, length - 1):
        raise CoverageError(f"covariance must cover lags [0, {length - 1}]")
    r = np.array([float(cov.midpoint(n)) for n in range(length)])
    idx = np.arange(length)
    toep = r[np.abs(np.subtract.outer(idx, idx))]
    eigvals, eigvecs = np.linalg.eigh(toep)
    scale = max(r[0], 1.0)
    if eigvals[0] < -_PSD_SLACK * scale:
        minor = next(
            (k for k in range(1, length + 1)
             if np.linalg.det(toep[:k, :k]) < -_PSD_SLACK * scale ** k),
            length,
        )
        raise PSDError(
            f"covariance not PSD: min eigenvalue {eigvals[0]:.3e}, "
            f"first offending leading minor of order {minor}"
        )
    repaired = bool(eigvals[0] < 0)
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    z = _stream(config.seed, 0).standard_normal((config.sample_count, length))
    return GaussianSample(paths=z @ factor.T, covariance=toep, repaired=repaired)


@dataclass
class PoissonPush:
    """Paired Poisson configurations on a tower region and their push-forward."""

    spec: RankOneSpec
    depth: int
    steps: int
    levels: np.ndarray        # level index of every sampled point
    config_index: np.ndarray  # which configuration each point belongs to
    pushed: np.ndarray        # level after the orbit push (escapes included, >= height)
    escaped: np.ndarray       # bool mask
    n_configs: int
    intensity: float

    @property
    def escape_fraction(self) -> float:
        return float(self.escaped.mean()) if self.levels.size else 0.0


def poisson_sample_and_push(
    spec: RankOneSpec,
    depth: int,
    intensity: float,
    steps: int,
    config: SimulationConfig,
) -> PoissonPush:
    """Sample configurations on the depth-``depth`` tower and push by the orbit map.

    Points are uniform over the tower's cells (the statistics only read
    cell-constant functions); the push adds ``steps`` levels and flags the
    points that leave the constructed region, exactly like the orbit
    oracle does.
    """
    if not intensity > 0:  # also rejects NaN
        raise ValueError("intensity must be positive")
    heights = spec.heights()
    if not 1 <= depth <= spec.max_depth:
        raise ValueError(f"depth {depth} outside [1, {spec.max_depth}]")
    h = heights[depth - 1]
    w = float(spec.widths()[depth - 1])
    expected_escape = min(abs(steps) / h, 1.0)
    if expected_escape > _ESCAPE_CAP:
        raise EscapeCapError(
            f"expected escaping fraction {expected_escape:.3f} exceeds cap {_ESCAPE_CAP}"
        )
    mean_points = intensity * h * w
    counts = _stream(config.seed, 1).poisson(mean_points, config.sample_count)
    total = int(counts.sum())
    levels = _stream(config.seed, 2).integers(0, h, total)
    config_index = np.repeat(np.arange(config.sample_count), counts)
    pushed = levels + steps
    escaped = (pushed < 0) | (pushed >= h)
    return PoissonPush(
        spec=spec, depth=depth, steps=steps,
        levels=levels, config_index=config_index,
        pushed=pushed, escaped=escaped,
        n_configs=config.sample_count, intensity=intensity,
    )


@dataclass
class CovarianceEstimate:
    estimate: float
    ci: tuple[float, float]
    stderr: float
    sample_count: int
    escape_fraction: float

    def contains(self, value: float | Fraction) -> bool:
        return self.ci[0] <= float(value) <= self.ci[1]

    def overlaps(self, lo: float | Fraction, hi: float | Fraction) -> bool:
        """Whether the CI meets the interval ``[lo, hi]``."""
        return bool(self.ci[0] <= float(hi) and float(lo) <= self.ci[1])


def level_values(spec: RankOneSpec, f: LevelFunction, depth: int) -> np.ndarray:
    """Value of ``f`` on every cell of the depth-``depth`` tower."""
    occ = occurrence_set(spec, f.stage, depth)
    val = np.zeros(occ.height)
    pos = np.array(occ.positions, dtype=np.int64)
    for level, coeff in f.coefficients:
        val[pos + level] = float(coeff)
    return val


def linear_statistic_covariance(pairs: PoissonPush, f: LevelFunction) -> CovarianceEstimate:
    """Estimate ``Cov(N(f), N(f) o push) / intensity`` with a 95 % normal CI.

    ``N(f)`` sums ``f`` over the configuration's points; by Campbell's
    formula the normalized covariance equals the region-restricted value of
    ``(f, T^steps f)``.  Escaped points are outside the constructed region
    and contribute zero; the certified correlations say when that is exact.
    """
    val = level_values(pairs.spec, f, pairs.depth)
    n1 = np.bincount(
        pairs.config_index, weights=val[pairs.levels], minlength=pairs.n_configs
    )
    keep = ~pairs.escaped
    n2 = np.bincount(
        pairs.config_index[keep],
        weights=val[pairs.pushed[keep]],
        minlength=pairs.n_configs,
    )
    if pairs.n_configs < 2:
        raise ValueError("degenerate sample: need at least 2 configurations")
    prods = (n1 - n1.mean()) * (n2 - n2.mean())
    # Campbell: Cov(N(f), N(f) o push) = intensity * integral of f * pushed f
    scale = 1.0 / pairs.intensity
    est = float(prods.mean()) * pairs.n_configs / (pairs.n_configs - 1) * scale
    stderr = float(prods.std(ddof=1)) / np.sqrt(pairs.n_configs) * scale
    z = NormalDist().inv_cdf(0.5 + 0.5 * _CONFIDENCE)
    return CovarianceEstimate(
        estimate=est,
        ci=(est - z * stderr, est + z * stderr),
        stderr=stderr,
        sample_count=pairs.n_configs,
        escape_fraction=pairs.escape_fraction,
    )
