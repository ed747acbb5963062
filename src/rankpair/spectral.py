"""Spectral-side analytics on correlation sequences.

Everything here is post-certificate: exact rationals cross the boundary
once, are rounded to doubles, and feed standard positive-kernel density
estimates and the chaos-coefficient transform for the Gaussian / Poisson
suspension layer.  Certificates never depend on this module.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .core import record
from .correlation import ZERO, CorrelationSequence


@record
class DensityEstimate:
    """Spectral density values on a uniform angle grid."""

    values: np.ndarray

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.values.size) / self.values.size

    def grid_mean(self) -> float:
        return float(np.mean(self.values))

    def min_value(self) -> float:
        return float(np.min(self.values))


def _cosine_density(seq: CorrelationSequence, weights, grid: int) -> DensityEstimate:
    """``rho(0) + 2 sum_n w_n rho(n) cos(n theta)`` over ``(n, w_n)`` in
    ascending ``n``, with ``rho`` the bracket midpoints.

    Callers pass only support lags.  Any other lag's term is a signed zero,
    as is that of a support lag with midpoint 0, and adding a zero to a sum
    that started from a positive zero or a nonzero value never changes it,
    so the values are the all-lags values bit for bit."""
    if grid < 1:
        raise ValueError("grid must be positive")
    est = DensityEstimate(np.full(grid, float(seq.midpoint(0)) if 0 in seq.entries else 0.0))
    values, thetas = est.values, est.thetas
    for n, w in weights:
        values += 2.0 * (w * float(seq.midpoint(n))) * np.cos(n * thetas)
    return est


def fejer_density(seq: CorrelationSequence, order: int, grid: int) -> DensityEstimate:
    """Non-negative kernel estimate of the spectral density from lags < order."""
    if order < 1:
        raise ValueError("order must be positive")
    seq.require(0, order - 1)
    support = (n for n in range(1, order) if seq.entries[n] != ZERO)
    return _cosine_density(seq, ((n, 1.0 - n / order) for n in support), grid)


def trig_polynomial_density(seq: CorrelationSequence, grid: int) -> DensityEstimate:
    """Exact trigonometric-polynomial density of a finitely supported sequence.

    Uses every entry of the sequence; only meaningful when the sequence's
    support window genuinely exhausts the correlations (the planned pairs'
    product sequences on their horizon, for instance).
    """
    return _cosine_density(seq, ((n, 1.0) for n in seq.support() if n > 0), grid)


@record
class ChaosCoefficients:
    """Truncated Fock-space coefficient sequence with certified tails."""

    sequence: CorrelationSequence
    tails: dict[int, Fraction]


def _exp_partial(x: Fraction, cap: int) -> Fraction:
    total = Fraction(0)
    term = Fraction(1)
    for k in range(1, cap + 1):
        term = term * x / k
        total += term
    return total


def _exp_tail_bound(x_abs: Fraction, cap: int) -> Fraction:
    # geometric domination of the remaining series terms; needs x_abs < cap + 2
    lead = x_abs ** (cap + 1) / math.factorial(cap + 1)
    return lead / (1 - x_abs / (cap + 2))


def chaos_exp_coefficients(seq: CorrelationSequence, chaos_cap: int) -> ChaosCoefficients:
    """Coefficients of the truncated exponential of the spectral measure.

    The k-fold convolution power of the base measure has coefficients
    ``rho(n)^k``, so the order-``K`` truncation of the Fock exponential has
    coefficients ``sum_{k=1..K} rho(n)^k / k!``.

    The input must be an autocorrelation with ``rho(0) = 1``, so that
    ``|rho(n)| <= 1`` (Cauchy-Schwarz): each bracket is clamped to
    ``[-1, 1]`` first.  The partial sum ``s_K`` is non-decreasing there,
    its derivative being the positive partial sum ``e_{K-1}``, so the
    values at the clamped ends enclose every value inside the bracket.
    """
    if chaos_cap < 1:
        raise ValueError("chaos_cap must be at least 1")
    if seq.entries.get(0) != (Fraction(1), Fraction(1)):
        raise ValueError("input must be normalized: rho(0) must be exactly 1")
    entries = {}
    tails = {}
    for n, bracket in seq.entries.items():
        a, b = (min(max(x, Fraction(-1)), Fraction(1)) for x in bracket)
        entries[n] = (_exp_partial(a, chaos_cap), _exp_partial(b, chaos_cap))
        tails[n] = _exp_tail_bound(max(abs(a), abs(b)), chaos_cap)
    out = CorrelationSequence(
        entries=entries,
        norm_sq=_exp_partial(Fraction(1), chaos_cap),
        subject=f"chaos<= {chaos_cap} of ({seq.subject})",
    )
    return ChaosCoefficients(sequence=out, tails=tails)
