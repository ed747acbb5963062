"""Monte-Carlo checks of the Gaussian and Poisson suspension layers.

The Gaussian sampler draws stationary sequences whose covariance is a
given correlation sequence.  The Poisson sampler throws configurations on
the only cells its statistics read, ``A = supp f ∪ T^-n supp f``, and
pushes every point ``n`` levels along the orbit, so linear statistics
reproduce the base correlations through the first chaos (Campbell's
formula).  Both samplers refuse, before allocating, a run whose arrays
would exceed a fixed cap.

Randomness uses counter-based Philox streams: stream 0 drives Gaussian
paths, stream 1 Poisson configuration sizes, stream 2 point positions,
stream 3 the whole-tower escape counts.  Identical configs give
bit-identical statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .core import EscapeCapError, LevelFunction, RankOneSpec, occurrence_set
from .correlation import CorrelationSequence, CoverageError

_PSD_SLACK = 1e-9
_ESCAPE_CAP = 0.5   # largest expected escaping fraction a Poisson push accepts
_CONFIDENCE = 0.95  # level of the normal interval around a covariance estimate
# memory caps, checked before allocating: a Poisson point costs about 50
# bytes across the sampler and the estimator, a float array entry 8 bytes
_POINT_CAP = 10 ** 7        # expected Poisson points in one simulation
_CELL_CAP = 10 ** 6         # cells of supp f in the sampled tower
_GAUSSIAN_CAP = 1 << 24     # entries of the Toeplitz matrix and of the paths


class PSDError(ValueError):
    pass


class MemoryCapError(MemoryError):
    """A simulation would allocate more than its fixed cap allows."""


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
    error naming the first offending leading principal minor.  A length
    whose Toeplitz matrix, or a sample whose paths, would hold more than
    ``2**24`` entries is refused before anything is allocated.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    entries = max(length * length, config.sample_count * length)
    if entries > _GAUSSIAN_CAP:
        raise MemoryCapError(
            f"length {length} with {config.sample_count} paths needs an array of {entries} "
            f"entries, over the cap {_GAUSSIAN_CAP}"
        )
    if not cov.covers(0, length - 1):
        raise CoverageError(f"covariance must cover lags [0, {length - 1}]")
    r = np.array([float(cov.midpoint(n)) for n in range(length)])
    idx = np.arange(length)
    toep = r[np.abs(np.subtract.outer(idx, idx))]
    eigvals, eigvecs = np.linalg.eigh(toep)
    slack = _PSD_SLACK * max(r[0], 1.0)
    if eigvals[0] < -slack:
        # bisect for the first leading block with an eigenvalue below -slack:
        # by Cauchy interlacing that eigenvalue never rises with the order
        within, minor = 0, length
        while minor - within > 1:
            k = (within + minor) // 2
            try:
                np.linalg.cholesky(toep[:k, :k] + slack * np.eye(k))
                within = k
            except np.linalg.LinAlgError:
                minor = k
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
    """Paired Poisson configurations on ``A = supp f ∪ T^-steps supp f`` and
    their push-forward."""

    f: LevelFunction
    steps: int
    support: np.ndarray       # sorted levels of the cells of supp f
    weights: np.ndarray       # value of f on each of those cells
    region: np.ndarray        # sorted levels of the cells of A
    levels: np.ndarray        # level index of every sampled point, all in A
    config_index: np.ndarray  # which configuration each point belongs to
    n_configs: int
    intensity: float
    escape_fraction: float    # escaping share of a whole-tower configuration


def _support(spec: RankOneSpec, f: LevelFunction, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted levels of the cells of ``supp f`` in the depth-``depth`` tower,
    and the value of ``f`` on each.  Occurrences of the stage-``f.stage``
    tower lie at least its height apart and every level lies below it, so
    the cells are distinct."""
    occ = np.array(occurrence_set(spec, f.stage, depth), dtype=np.int64)
    levels, coeffs = zip(*f.coefficients)
    cells = np.add.outer(occ, np.array(levels, dtype=np.int64)).ravel()
    values = np.tile([float(c) for c in coeffs], occ.size)
    order = np.argsort(cells)
    return cells[order], values[order]


def _values_at(support: np.ndarray, weights: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``f`` at the levels ``x``: its weight on a support cell, else zero
    (levels outside the tower included)."""
    i = np.minimum(np.searchsorted(support, x), support.size - 1)
    return np.where(support[i] == x, weights[i], 0.0)


def poisson_sample_and_push(
    spec: RankOneSpec,
    f: LevelFunction,
    depth: int,
    intensity: float,
    steps: int,
    config: SimulationConfig,
) -> PoissonPush:
    """Sample configurations on ``A = supp f ∪ T^-steps supp f`` in the
    depth-``depth`` tower and push them ``steps`` levels along the orbit.

    ``N(f)`` and ``N(f) o push`` read no point outside ``A``, and a Poisson
    process restricted to ``A`` is Poisson with mean ``intensity * mu(A)``,
    so sampling on ``A`` alone gives their joint law.  Every cell has the
    same width, so points are uniform over ``A``'s cells.  The escape
    fraction stays a whole-tower statistic: the share of a whole-tower
    configuration that the push carries out of ``[0, height)``.
    Memory is bounded before any array is built: the cell count of
    ``supp f`` and the expected point count each have a fixed cap.
    """
    if not intensity > 0:  # also rejects NaN
        raise ValueError("intensity must be positive")
    if not 1 <= depth <= spec.max_depth:
        raise ValueError(f"depth {depth} outside [1, {spec.max_depth}]")
    problems = f.issues(spec)
    if problems:
        raise ValueError(problems[0])
    h = spec.heights()[depth - 1]
    w = float(spec.widths()[depth - 1])
    escaping_levels = min(abs(steps), h)
    if escaping_levels / h > _ESCAPE_CAP:
        raise EscapeCapError(
            f"expected escaping fraction {escaping_levels / h:.3f} exceeds cap {_ESCAPE_CAP}"
        )
    cell_count = len(f.coefficients) * math.prod(
        st.cuts for st in spec.stages[f.stage - 1 : depth - 1]
    )
    if cell_count > _CELL_CAP:
        raise MemoryCapError(
            f"supp f has {cell_count} cells at depth {depth}, over the cap {_CELL_CAP}"
        )
    support, weights = _support(spec, f, depth)
    shifted = support - steps
    region = np.union1d(support, shifted[(shifted >= 0) & (shifted < h)])
    mean_points = intensity * w * region.size
    if mean_points * config.sample_count > _POINT_CAP:
        raise MemoryCapError(
            f"{mean_points * config.sample_count:.3g} expected points, over the cap {_POINT_CAP:.0e}"
        )
    counts = _stream(config.seed, 1).poisson(mean_points, config.sample_count)
    levels = region[_stream(config.seed, 2).integers(0, region.size, int(counts.sum()))]
    # whole-tower escape: independent Poisson counts on the escaping and the other levels
    per_level = intensity * w * config.sample_count
    escape = _stream(config.seed, 3)
    escaped = int(escape.poisson(per_level * escaping_levels))
    total = escaped + int(escape.poisson(per_level * (h - escaping_levels)))
    return PoissonPush(
        f=f, steps=steps,
        support=support, weights=weights, region=region, levels=levels,
        config_index=np.repeat(np.arange(config.sample_count), counts),
        n_configs=config.sample_count, intensity=intensity,
        escape_fraction=escaped / total if total else 0.0,
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


def linear_statistic_covariance(pairs: PoissonPush, f: LevelFunction) -> CovarianceEstimate:
    """Estimate ``Cov(N(f), N(f) o push) / intensity`` with a 95 % normal CI.

    ``N(f)`` sums ``f`` over the configuration's points; by Campbell's
    formula the normalized covariance equals the region-restricted value of
    ``(f, T^steps f)``.  Escaped points are outside the constructed region
    and contribute zero; the certified correlations say when that is exact.
    ``f`` must be the function the configurations were sampled for, since
    they cover only its region.
    """
    if f != pairs.f:
        raise ValueError("f is not the function the configurations were sampled for")
    if pairs.n_configs < 2:
        raise ValueError("degenerate sample: need at least 2 configurations")
    n1, n2 = (
        np.bincount(pairs.config_index, minlength=pairs.n_configs,
                    weights=_values_at(pairs.support, pairs.weights, levels))
        for levels in (pairs.levels, pairs.levels + pairs.steps)
    )
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
