"""Spectral-side analytics on correlation sequences.

Everything here is post-certificate: exact rationals cross the boundary
once, are rounded to doubles, and feed standard positive-kernel density
estimates and the chaos-coefficient transform for the Gaussian / Poisson
suspension layer.  Certificates never depend on this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .correlation import CorrelationSequence, CoverageError


@dataclass
class DensityEstimate:
    """Spectral density values on a uniform angle grid."""

    grid_size: int
    values: np.ndarray
    exact: bool

    @property
    def thetas(self) -> np.ndarray:
        return 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size

    def grid_mean(self) -> float:
        return float(np.mean(self.values))

    def min_value(self) -> float:
        return float(np.min(self.values))


def _cosine_density(seq: CorrelationSequence, weights, grid: int, exact: bool) -> DensityEstimate:
    """``rho(0) + 2 sum_n w_n rho(n) cos(n theta)`` over ``(n, w_n)`` in
    ascending ``n``, with ``rho`` the bracket midpoints."""
    if grid < 1:
        raise ValueError("grid must be positive")
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    values = np.full(grid, float(seq.midpoint(0)) if 0 in seq.entries else 0.0)
    for n, w in weights:
        values += 2.0 * (w * float(seq.midpoint(n))) * np.cos(n * thetas)
    return DensityEstimate(grid_size=grid, values=values, exact=exact)


def fejer_density(seq: CorrelationSequence, order: int, grid: int) -> DensityEstimate:
    """Non-negative kernel estimate of the spectral density from lags < order."""
    if order < 1:
        raise ValueError("order must be positive")
    if not seq.covers(0, order - 1):
        raise CoverageError(f"sequence must cover [0, {order - 1}]")
    return _cosine_density(seq, ((n, 1.0 - n / order) for n in range(1, order)), grid, False)


def trig_polynomial_density(seq: CorrelationSequence, grid: int) -> DensityEstimate:
    """Exact trigonometric-polynomial density of a finitely supported sequence.

    Uses every entry of the sequence; only meaningful when the sequence's
    support window genuinely exhausts the correlations (the planned pairs'
    product sequences on their horizon, for instance).
    """
    return _cosine_density(seq, ((n, 1.0) for n in seq.support() if n > 0), grid, True)


@dataclass
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
    # geometric domination of the remaining series terms
    if x_abs >= cap + 2:
        raise ValueError("tail bound needs |rho| < cap + 2")
    lead = x_abs ** (cap + 1) / math.factorial(cap + 1)
    return lead / (1 - x_abs / (cap + 2))


def chaos_exp_coefficients(seq: CorrelationSequence, chaos_cap: int) -> ChaosCoefficients:
    """Coefficients of the truncated exponential of the spectral measure.

    The k-fold convolution power of the base measure has coefficients
    ``rho(n)^k``, so the order-``K`` truncation of the Fock exponential has
    coefficients ``sum_{k=1..K} rho(n)^k / k!``.  Requires ``rho(0) = 1``.
    """
    if chaos_cap < 1:
        raise ValueError("chaos_cap must be at least 1")
    if 0 not in seq.entries or seq.entry(0) != (Fraction(1), Fraction(1)):
        raise ValueError("input must be normalized: rho(0) must be exactly 1")
    entries = {}
    tails = {}
    for n, (a, b) in seq.entries.items():
        lo = _exp_partial(a, chaos_cap)
        hi = _exp_partial(b, chaos_cap)
        entries[n] = (min(lo, hi), max(lo, hi))
        tails[n] = _exp_tail_bound(max(abs(a), abs(b)), chaos_cap)
    out = CorrelationSequence(
        entries=entries,
        norm_sq=_exp_partial(Fraction(1), chaos_cap),
        subject=f"chaos<= {chaos_cap} of ({seq.subject})",
    )
    return ChaosCoefficients(sequence=out, tails=tails)
