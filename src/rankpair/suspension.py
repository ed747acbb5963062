"""Monte-Carlo checks of the Gaussian and Poisson suspension layers.

The Gaussian sampler draws stationary sequences whose covariance is a
given correlation sequence.  The Poisson sampler throws configurations on
the only cells its statistics read, ``A = supp f ∪ T^-n supp f``, and
pushes every point ``n`` levels along the orbit, so linear statistics
reproduce the base correlations through the first chaos (Campbell's
formula).  A Poisson point is held as an int32 index into ``A``, about
4 bytes of peak memory; it is scored through tables of ``f`` on ``A`` and
``A + n``, a chunk of whole configurations at a time, so the scoring
buffers do not grow with the point count.  Both samplers refuse, before
allocating, a run whose arrays would exceed a fixed cap.

Randomness uses counter-based Philox streams keyed by the seed: both
Gaussian samplers draw each block of 128 paths from its own stream
(counter ``[0, 0, b, 0]`` for block ``b``), and streams 1 and 2 give
Poisson configuration sizes and point positions.  Gaussian blocks run on
up to two worker threads, and every block writes only its own rows and
its own slot of the lagged sums, which are added in block order; so
identical configs give bit-identical statistics on any number of CPUs.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from fractions import Fraction
from statistics import NormalDist

import numpy as np

from .core import EscapeCapError, LevelFunction, RankOneSpec, occurrence_set, record
from .correlation import CorrelationSequence

_PSD_SLACK = 1e-9
_ESCAPE_CAP = 0.5   # largest expected escaping fraction a Poisson push accepts
_CONFIDENCE = 0.95  # level of the normal interval around a covariance estimate
# memory caps, checked before allocating: a Poisson point costs about 4
# bytes (its int32 cell) beside a scoring buffer bounded by _CHUNK, a float
# array entry 8 bytes
_POINT_CAP = 10 ** 7        # expected Poisson points in one simulation
_CELL_CAP = 10 ** 6         # cells of supp f in the sampled tower
_GAUSSIAN_CAP = 1 << 24     # entries of the largest Gaussian sampler array
_CHUNK = 1 << 20            # Poisson points scored at once, in whole configurations


class PSDError(ValueError):
    pass


class MemoryCapError(MemoryError):
    """A simulation would allocate more than its fixed cap allows."""


@record(frozen=True)
class SimulationConfig:
    sample_count: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.sample_count < 1:
            raise ValueError("sample_count must be at least 1")


def _stream(seed: int, index: int, block: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, block, index]))


_BLOCK_ROWS = 128  # Gaussian paths per block: one Philox stream, one lagged-sum slot
_WORKERS = 2       # Gaussian blocks in flight at once; the memory cap counts their rows


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_blocks(blocks: int, work) -> int:
    """Call ``work(range(w, blocks, workers))`` on each of
    ``workers = min(_WORKERS, usable CPUs, blocks)`` workers ``w``, and
    return the worker count.  The calling thread is worker 0, so one worker
    starts no thread.  The first exception a worker raises is raised
    unchanged once every thread has joined."""
    workers = min(_WORKERS, _usable_cpus(), blocks)
    errors: list[BaseException] = []

    def run(w):
        try:
            work(range(w, blocks, workers))
        except BaseException as exc:
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return workers


def _nfft(length: int) -> int:
    """The FFT size of the lagged sums, at least ``2 * length - 1``."""
    return 1 << (2 * length - 1).bit_length()


def _block_power(rows: np.ndarray, nfft: int) -> np.ndarray:
    """The summed power of the rows' zero-padded real FFTs.  Its inverse
    transform is ``sum over rows and t of x[t] * x[t + k]`` for every lag:
    the padding to at least ``2 * length - 1`` makes the circular
    autocorrelation a linear one.  The real and imaginary parts are squared
    in place in the transform, which keeps a block to one temporary."""
    parts = np.fft.rfft(rows, n=nfft, axis=1).view(np.float64)
    np.square(parts, out=parts)
    return parts.sum(axis=0).reshape(-1, 2).sum(axis=1)


@record
class GaussianSample:
    paths: np.ndarray          # (sample_count, length)
    repaired: bool
    sampler: str               # "circulant" or "schur"
    embedding_min: float       # smallest eigenvalue of the circulant embedding
    embedding_size: int        # order of the circulant, or of the Schur factor
    lagged: np.ndarray         # sum over paths and t of x[t] * x[t + k], per lag k
    blocks: int                # blocks of _BLOCK_ROWS paths
    workers: int               # threads that drew the blocks and their lagged sums

    def sample_covariance(self, lag: int) -> float:
        """Average of lagged products over both samples and time."""
        samples, length = self.paths.shape
        if not 0 <= lag < length:
            raise ValueError(f"lag {lag} outside [0, {length})")
        return float(self.lagged[lag]) / (samples * (length - lag))


def _circulant_rows(scale: np.ndarray, seed: int, b: int, rows: np.ndarray) -> None:
    """Draw block ``b``'s ``rows``.  Paths have the covariance of the
    circulant with eigenvalues ``scale**2 * scale.size``, truncated to their
    length: each row of ``fft(scale * (z1 + i z2))`` gives two independent
    exact paths, its real part and its imaginary part."""
    count, length = rows.shape
    half = (count + 1) // 2
    # pairs of standard normals viewed as z1 + i z2
    z = _stream(seed, 0, block=b).standard_normal((half, scale.size, 2))
    noise = z.view(np.complex128)[..., 0]
    noise *= scale
    y = np.fft.fft(noise, axis=1)[:, :length]
    rows[:half] = y.real
    rows[half:] = y.imag[: count - half]


def _toeplitz_cholesky(r: np.ndarray) -> np.ndarray | int:
    """The lower Cholesky factor of the Toeplitz matrix with first row ``r``,
    or the order of its first leading block that is not positive definite.

    The Schur algorithm (Kailath & Sayed 1995), O(L^2): the Schur complement
    ``S`` has generators with ``S - Z S Z^T = u u^T - v v^T``, ``u`` its next
    factor column.  Each step shifts ``u`` down a row and zeroes ``v_0`` by
    a hyperbolic rotation, which exists while the pivot ``u_0^2 (1 - rho^2)``
    is positive; updating ``v`` from the new ``u`` keeps it stable.
    """
    if not r[0] > 0:
        return 1
    upper = np.zeros((r.size, r.size))
    u = upper[0] = r / math.sqrt(r[0])
    v = u[1:]
    for k in range(1, r.size):
        rho = v[0] / u[0]
        if not abs(rho) < 1:
            return k + 1
        s = math.sqrt((1 - rho) * (1 + rho))
        u = upper[k, k:] = (u[:-1] - rho * v) / s
        v = (s * v - rho * u)[1:]
    return upper.T


def _smooth_size(n: int) -> int:
    """The least ``2**a * 3**b * 5**c`` that is at least ``n``."""
    best = 1 << (n - 1).bit_length()
    odd5 = 1
    while odd5 < best:
        odd = odd5
        while odd < best:
            # the least power of two times odd that is at least n
            best = min(best, odd << (-(-n // odd) - 1).bit_length())
            odd *= 3
        odd5 *= 5
    return best


def _embedding(r: np.ndarray, slack: float) -> tuple[np.ndarray, np.ndarray]:
    """The first row and the eigenvalues of the circulant embedding that
    :func:`gaussian_sample` picks for ``r``: the first of its candidate
    sizes whose eigenvalues clear ``-slack``, else the minimal one."""
    length = r.size
    nonzero = np.flatnonzero(r)
    q = int(nonzero[-1]) if nonzero.size else 0
    minimal = max(2 * length - 2, 1)
    short = _smooth_size(length + q)
    for m in ((short, minimal) if short < minimal else (minimal,)):
        row = np.zeros(m)  # (r_0 .. r_q, zeros, r_q .. r_1)
        row[: q + 1] = r[: q + 1]
        row[m - q :] = r[q:0:-1]
        # one real FFT gives the eigenvalues at frequencies 0 .. m/2; the
        # others mirror them
        half = np.fft.rfft(row).real
        lam = np.concatenate((half, half[(m - 1) // 2 : 0 : -1]))
        if lam.min() >= -slack:
            break
    return row, lam


_PANEL = 256  # columns of the Schur factor's transpose multiplied at once


def gaussian_sample(
    cov: CorrelationSequence, length: int, config: SimulationConfig
) -> GaussianSample:
    """Stationary zero-mean Gaussian paths with the given covariance.

    The fast path embeds the covariance in a circulant whose eigenvalues
    are one real FFT of its first row (Davies & Harte 1987; Dietrich &
    Newsam 1997).  With ``q`` the last lag below ``L`` whose midpoint is
    not zero, any size ``m >= L + q`` with first row ``(r_0 .. r_q, zeros,
    r_q .. r_1)`` has the Toeplitz matrix of ``r`` as its leading block, as
    does the minimal size ``2L - 2`` with row ``(r_0 .. r_{L-1}, r_{L-2} ..
    r_1)`` (Wood & Chan 1994).  Two sizes are tried in order: the least
    ``2**a 3**b 5**c`` at least ``L + q``, then ``2L - 2`` (the only one
    when ``q >= L - 2``, whose draws are then those of the minimal
    embedding).  The first with no eigenvalue below ``-1e-9 * max(r_0, 1)``
    is used: negative ones are clipped to zero and the paths are FFTs of
    scaled complex noise; the Toeplitz matrix is the embedding's leading
    block, so it is PSD as well and is never built.  If neither clears the
    slack, the Schur algorithm factors the Toeplitz matrix, once more
    with that slack added to ``r_0`` if it is not positive definite
    (truncating a genuine covariance can graze zero; the sample is then
    repaired); if that fails too, the error names the first offending
    leading principal minor.  A Schur sample reports the ``embedding_min``
    of the size ``2L - 2``, and its paths are normals times the factor's
    transpose, taken in panels of columns that read only the factor's
    nonzero rows.  The largest array the chosen sampler holds is capped at
    ``2**24`` entries before any of its arrays is allocated.

    Paths come in blocks of 128, and one loop serves both samplers: it
    draws a block's paths from the block's own stream, sums their lagged
    products, then takes the worker's next block.  Blocks run on up to two
    workers, and the sample keeps the lagged sums of every lag.
    """
    if length < 1:
        raise ValueError(f"length must be at least 1, got {length}")
    r = np.array([float(cov.midpoint(n)) for n in range(length)])
    slack = _PSD_SLACK * max(r[0], 1.0)
    row, lam = _embedding(r, slack)
    embedding_min = float(lam.min())
    circulant = embedding_min >= -slack
    nfft = _nfft(length)
    # the largest array the chosen sampler holds: the paths, or the
    # _WORKERS blocks in flight and their transforms, each nfft wide; or
    # the Schur factor
    entries = max(config.sample_count * length,
                  2 * min(config.sample_count, _WORKERS * _BLOCK_ROWS) * nfft
                  if circulant else length * length)
    if entries > _GAUSSIAN_CAP:
        raise MemoryCapError(
            f"length {length} with {config.sample_count} paths needs an array of {entries} "
            f"entries, over the cap {_GAUSSIAN_CAP}"
        )
    if circulant:
        eig = np.clip(lam, 0.0, None)
        scale = np.sqrt(eig / eig.size)
        repaired = embedding_min < 0
        draw = functools.partial(_circulant_rows, scale, config.seed)
    else:
        factor = _toeplitz_cholesky(r)
        repaired = isinstance(factor, int)
        if repaired:
            factor = _toeplitz_cholesky(np.concatenate(([r[0] + slack], r[1:])))
            if isinstance(factor, int):
                raise PSDError(f"covariance not PSD: first offending leading minor of order {factor}")
        upper = factor.T

        def draw(b, rows):
            z = _stream(config.seed, 0, block=b).standard_normal(rows.shape)
            # columns j0 .. j1 of the paths read only rows below j1 of the
            # upper triangular factor, the others being zero
            for j0 in range(0, length, _PANEL):
                j1 = min(j0 + _PANEL, length)
                np.matmul(z[:, :j1], upper[:j1, j0:j1], out=rows[:, j0:j1])

    blocks = -(-config.sample_count // _BLOCK_ROWS)
    paths = np.empty((config.sample_count, length))
    power = np.empty((blocks, nfft // 2 + 1))  # one lagged-sum slot per block

    def work(indices):
        for b in indices:
            rows = paths[b * _BLOCK_ROWS : (b + 1) * _BLOCK_ROWS]
            draw(b, rows)
            power[b] = _block_power(rows, nfft)

    workers = _run_blocks(blocks, work)
    # the slots are added in block order, whichever worker filled them
    lagged = np.fft.irfft(power.sum(axis=0), n=nfft)[:length]
    return GaussianSample(paths=paths, repaired=repaired,
                          sampler="circulant" if circulant else "schur",
                          embedding_min=embedding_min,
                          embedding_size=row.size if circulant else length,
                          lagged=lagged, blocks=blocks, workers=workers)


@record
class PoissonPush:
    """Paired Poisson configurations on ``A = supp f ∪ T^-steps supp f`` and
    their push-forward.  Configuration ``i`` is the ``counts[i]`` points
    that follow those of the configurations before it in ``cells``."""

    f: LevelFunction
    steps: int
    support: np.ndarray       # sorted levels of the cells of supp f
    weights: np.ndarray       # value of f on each of those cells
    region: np.ndarray        # sorted levels of the cells of A
    cells: np.ndarray         # int32 index into region of every sampled point
    counts: np.ndarray        # points in each configuration
    intensity: float
    escape_fraction: float    # share of the whole tower the push carries out

    @property
    def n_configs(self) -> int:
        return int(self.counts.size)

    @property
    def levels(self) -> np.ndarray:
        """The level of every sampled point (int64, built on each read)."""
        return self.region[self.cells]


def _support(spec: RankOneSpec, f: LevelFunction, depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted levels of the cells of ``supp f`` in the depth-``depth`` tower,
    and the value of ``f`` on each.  Occurrences of the stage-``f.stage``
    tower ascend at least its height apart and every level lies below it,
    so the cells of one occurrence, in level order, all lie below those of
    the next: occurrence by occurrence they ascend, and are distinct."""
    occ = np.array(occurrence_set(spec, f.stage, depth), dtype=np.int64)
    levels, coeffs = zip(*sorted(f.coefficients))
    cells = np.add.outer(occ, np.array(levels, dtype=np.int64)).ravel()
    return cells, np.tile([float(c) for c in coeffs], occ.size)


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
    fraction is exact: the share of the whole tower that the push carries
    out of ``[0, height)``.
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
    escape_fraction = min(abs(steps), h) / h
    if escape_fraction > _ESCAPE_CAP:
        raise EscapeCapError(
            f"expected escaping fraction {escape_fraction:.3f} exceeds cap {_ESCAPE_CAP}"
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
    # sorted and deduplicated by hand: np.union1d would import numpy.ma
    region = np.concatenate((support, shifted[(shifted >= 0) & (shifted < h)]))
    region.sort()
    region = np.concatenate((region[:1], region[1:][region[1:] != region[:-1]]))
    mean_points = intensity * w * region.size
    if mean_points * config.sample_count > _POINT_CAP:
        raise MemoryCapError(
            f"{mean_points * config.sample_count:.3g} expected points, over the cap {_POINT_CAP:.0e}"
        )
    counts = _stream(config.seed, 1).poisson(mean_points, config.sample_count)
    cells = _stream(config.seed, 2).integers(0, region.size, int(counts.sum()), dtype=np.int32)
    return PoissonPush(
        f=f, steps=steps, support=support, weights=weights, region=region,
        cells=cells, counts=counts, intensity=intensity,
        escape_fraction=escape_fraction,
    )


@record
class CovarianceEstimate:
    estimate: float
    ci: tuple[float, float]
    stderr: float

    def contains(self, value: float | Fraction) -> bool:
        return self.ci[0] <= float(value) <= self.ci[1]

    def overlaps(self, lo: float | Fraction, hi: float | Fraction) -> bool:
        """Whether the CI meets the interval ``[lo, hi]``."""
        return bool(self.ci[0] <= float(hi) and float(lo) <= self.ci[1])


def _linear_statistics(pairs: PoissonPush) -> tuple[np.ndarray, np.ndarray]:
    """``N(f)`` and ``N(f) o push`` of every configuration.

    ``f`` is tabulated once on ``A`` and once on ``A + steps``, so a point
    costs two gathers.  Configurations are scored in chunks of whole ones,
    about ``_CHUNK`` points each (one configuration may exceed it), and
    each sum adds its points in sampling order, so the result does not
    depend on the chunking.
    """
    tables = [_values_at(pairs.support, pairs.weights, x)
              for x in (pairs.region, pairs.region + pairs.steps)]
    sums = np.zeros((2, pairs.n_configs))
    ends = np.cumsum(pairs.counts)
    first, start = 0, 0
    while first < pairs.n_configs:
        last = max(int(np.searchsorted(ends, start + _CHUNK, side="right")), first + 1)
        stop = int(ends[last - 1])
        owner = np.repeat(np.arange(last - first), pairs.counts[first:last])
        cells = pairs.cells[start:stop]
        for row, table in zip(sums, tables):
            row[first:last] = np.bincount(owner, weights=table[cells], minlength=last - first)
        first, start = last, stop
    return sums[0], sums[1]


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
    n1, n2 = _linear_statistics(pairs)
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
    )
