"""Exact shift-orthonormal algebra over the two-sided fair-coin shift.

Basis elements are finite products of the +-1 coordinate functions,
indexed by finite sets of coordinates; distinct index sets are orthogonal,
each product has norm one, and the shift translates index sets by one.
That makes every inner product a finite rational sum and lets the
truncation step hand out a hard cutoff ``M`` past which shifted copies
are *exactly* orthogonal: two supports can only overlap when the shift is
at most the spread of the occupied indices.

Renormalizing a truncation generally needs an irrational scalar, so the
truncated polynomial is returned raw together with its exact squared
norm; all orthogonality claims are scale-invariant and the distance-to-
``f`` guarantee is checked through an exact inequality between squares.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .core import record

IndexSet = frozenset[int]


@record(frozen=True)
class WalshPolynomial:
    """Finite rational combination of coordinate-product basis elements."""

    terms: tuple[tuple[IndexSet, Fraction], ...]

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[Iterable[int], Fraction | int]]) -> "WalshPolynomial":
        acc: dict[IndexSet, Fraction] = {}
        for idx, c in terms:
            key = frozenset(idx)
            acc[key] = acc.get(key, Fraction(0)) + Fraction(c)
        items = tuple(
            sorted(
                ((k, v) for k, v in acc.items() if v != 0),
                key=lambda t: sorted(t[0]),
            )
        )
        return cls(items)

    def coefficient(self, idx: Iterable[int]) -> Fraction:
        key = frozenset(idx)
        for k, v in self.terms:
            if k == key:
                return v
        return Fraction(0)

    def norm_sq(self) -> Fraction:
        return sum((c * c for _, c in self.terms), Fraction(0))

    def is_zero_mean(self) -> bool:
        return self.coefficient(()) == 0

    def index_span(self) -> tuple[int, int] | None:
        indices = [i for k, _ in self.terms for i in k]
        if not indices:
            return None
        return (min(indices), max(indices))


def shift_power(p: WalshPolynomial, m: int) -> WalshPolynomial:
    """Translate every index set by ``m``; exact and invertible."""
    return WalshPolynomial(
        tuple((frozenset(i + m for i in k), c) for k, c in p.terms)
    )


def inner_product(p: WalshPolynomial, q: WalshPolynomial) -> Fraction:
    lookup = dict(q.terms)
    return sum((c * lookup.get(k, Fraction(0)) for k, c in p.terms), Fraction(0))


def shift_cutoff(p: WalshPolynomial) -> int:
    """Smallest ``M`` our rule certifies: shifted copies of ``p`` are
    orthogonal for every shift above the spread of its occupied indices."""
    span = p.index_span()
    if span is None:
        return 0
    return span[1] - span[0] + 1


def _minima_by_shape(p: WalshPolynomial) -> list[list[int]]:
    """The minima of ``p``'s nonempty index sets, grouped by shape, the set
    minus its minimum.  ``K + m`` has ``K``'s shape, so the shifts that
    carry one index set of ``p`` onto another are exactly the differences
    of minima within a group; this is independent of ``shift_cutoff``."""
    groups: dict[IndexSet, list[int]] = {}
    for k, _ in p.terms:
        if k:
            low = min(k)
            groups.setdefault(frozenset(i - low for i in k), []).append(low)
    return list(groups.values())


@record
class Lemma3Truncation:
    f_prime: WalshPolynomial     # raw (unnormalized) truncation
    cutoff: int                  # orthogonality holds exactly past this shift
    kept_norm_sq: Fraction
    tail_frac: Fraction          # dropped mass / total mass, exact

    def overlap_past_cutoff(self) -> int | None:
        """The smallest shift above ``cutoff`` that carries one index set
        of ``f_prime`` onto another, or ``None`` when no shift does.  This
        rechecks the cutoff by shape, not by the spread rule that set it;
        it costs O(terms) when the cutoff holds."""
        shifts = [b - a for lows in _minima_by_shape(self.f_prime)
                  if max(lows) - min(lows) > self.cutoff
                  for a in lows for b in lows if b - a > self.cutoff]
        return min(shifts, default=None)

    def distance_below(self, delta: Fraction) -> bool:
        return _distance_below(self.tail_frac, delta)


def _distance_below(tail_frac: Fraction, delta: Fraction) -> bool:
    """Exact check that a *renormalized* truncation that drops the share
    ``t = tail_frac`` of the mass is within ``delta`` of the (normalized)
    input: squared distance is 2 - 2 sqrt(1 - t), compared against delta^2
    through an equivalent rational inequality."""
    delta = Fraction(delta)
    if delta <= 0:
        return False
    d2 = delta * delta
    if d2 >= 2:
        return True
    target = 1 - d2 / 2
    return (1 - tail_frac) > target * target


def lemma3_truncate(f: WalshPolynomial, delta: Fraction) -> Lemma3Truncation:
    """Truncate to a finite window with certified shift-orthogonality cutoff.

    Terms are kept in order of increasing coordinate magnitude until the
    dropped mass is provably small enough that the renormalized truncation
    sits within ``delta`` of the input.
    """
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    if not f.is_zero_mean():
        raise ValueError("input must be zero-mean (no constant term)")
    if not f.terms:
        raise ValueError("input is zero")
    ordered = sorted(f.terms, key=lambda t: (max(abs(i) for i in t[0]), sorted(t[0])))
    squares = [c * c for _, c in ordered]
    total = sum(squares, Fraction(0))
    # _distance_below(tail_frac, delta) with 1 - tail_frac = kept_sq / total
    d2 = delta * delta
    bound = (1 - d2 / 2) ** 2 * total if d2 < 2 else -1
    kept_sq = Fraction(0)
    for size, sq in enumerate(squares, start=1):  # the full prefix always reaches distance 0
        kept_sq += sq
        if kept_sq > bound:
            break
    tail_frac = (total - kept_sq) / total
    f_prime = WalshPolynomial(tuple(ordered[:size]))
    return Lemma3Truncation(f_prime, shift_cutoff(f_prime), kept_sq, tail_frac)


def corr_tail_certificate(
    f_prime: WalshPolynomial, cutoff: int, horizon: int
) -> Fraction:
    """Exact absolute-correlation sum of the shifted truncation over
    ``(cutoff, horizon]``; zero whenever the cutoff rule was honored."""
    return correlation_budget(f_prime, cutoff + 1, horizon)


def correlation_budget(p: WalshPolynomial, lo: int, hi: int) -> Fraction:
    """Exact value of the absolute-correlation sum over shifts ``[lo, hi]``.

    Only a shift that carries one index set of ``p`` onto another can give
    a nonzero term, and the largest such shift is the widest spread of
    minima within one shape group, so the sum is finite work regardless of
    the horizon.
    """
    reach = max((max(lows) - min(lows) for lows in _minima_by_shape(p)), default=0)
    total = Fraction(0)
    for m in range(lo, min(hi, reach) + 1):
        total += abs(inner_product(shift_power(p, m), p))
    return total
