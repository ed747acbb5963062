"""Certified correlation brackets for level functions.

Every value ``(f, T^n g)`` reduces to counting position pairs at fixed
differences between the occurrence sets of two tracked base levels.  The
engine below carries those pair counts through the stages without ever
materialising the (potentially astronomically long) occurrence lists.  It
keeps exact pair counts only on the *lag bands* a query reaches: lags in
``[lo, hi]`` read the differences ``[lo + min shift, hi + max shift]``,
where a shift is ``lf - lg`` for a level of each function.  The count at a
difference ``m`` one stage deeper is ``cuts`` times its count now plus the
cross-copy pairs at ``m``, so the bands are exact on their own.  Beside the
counts it keeps the occurrence positions within ``W`` of the bottom and of
the top of the tower, ``W`` being the farthest band end; that is all that
cross-copy pairs in the bands can touch.  A difference outside the bands
was never counted: reading it raises :class:`CoverageError`, never a zero.

Each depth yields a bracket ``[lower, upper]``: ``lower`` counts the pairs
already inside the tower, and the defect is bounded by the mass of
occurrences within reach of the tower top.  Deepening the tower never
widens a bracket, so the intervals are nested and the certified gap can
only shrink.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Iterator, Optional

from .core import (LevelFunction, RankOneSpec, StageSpec, ToleranceNotReached, merge_intervals,
                   record)

Interval = tuple[Fraction, Fraction]
ZERO: Interval = (Fraction(0), Fraction(0))  # shared by every exactly-zero lag


class CoverageError(ValueError):
    """A sequence does not cover the requested index range."""


@record
class _SetWindow:
    """Occurrence positions of one base level near the tower bottom and top."""

    bot: list[int]
    top: list[int]
    maxpos: int

    def step(self, st: StageSpec, h: int, h_new: int, window: int) -> "_SetWindow":
        offs = st.offsets(h)
        bot = []
        for off in offs:
            if off > window:
                break
            bot.extend(off + a for a in self.bot if off + a <= window)
        top = []
        lo = h_new - window
        for off in offs:
            if off + self.maxpos < lo:
                continue
            top.extend(off + a for a in self.top if off + a >= lo)
        return _SetWindow(bot=bot, top=top, maxpos=offs[-1] + self.maxpos)


Band = tuple[int, int]
_START, _END = operator.itemgetter(0), operator.itemgetter(1)


def _count_shifted(counts: Counter, base: int, values, sign: int, reach) -> bool:
    """Add to ``counts`` the differences ``sign * (base + v)`` over the sorted
    ``values`` for which ``base + v`` lies in a band of ``reach`` (the bands
    of ``sign * m``).  Each band takes two bisects and one
    ``Counter.update``.  False when ``base + min(values)`` is past every band,
    so that no larger ``base`` can count anything either."""
    first = bisect.bisect_left(reach, base + values[0], key=_END)
    if first == len(reach):
        return False
    shift = sign * base
    add = shift.__add__ if sign > 0 else shift.__sub__
    last = base + values[-1]
    for lo, hi in reach[first:]:
        if lo > last:
            break
        i = bisect.bisect_left(values, lo - base)
        k = bisect.bisect_right(values, hi - base, i)
        counts.update(map(add, values[i:k]))
    return True


def _count_cross(counts: Counter, offs, top, bot, bands: list[Band], sign: int) -> None:
    """Add to ``counts`` the pairs that join an occurrence ``t`` of ``top`` in
    a lower copy to an occurrence ``u`` of ``bot`` in a higher copy (f to g
    with ``sign`` 1, g to f with ``sign`` -1), at ``sign * (gap - t + u)``,
    for the differences inside ``bands``.

    Pairs within one copy recur in every copy and are counted by the caller.
    Both lists are sorted, so the ``u`` of each ``t`` that land in a band
    are a slice of ``bot``, found by bisection.
    """
    reach = bands if sign > 0 else [(-hi, -lo) for lo, hi in reversed(bands)]
    for i, lower in enumerate(offs):
        for higher in offs[i + 1 :]:
            for t in reversed(top):
                if not _count_shifted(counts, higher - lower - t, bot, sign, reach):
                    break


@record
class BracketTable:
    """The pair counts of one depth and the brackets for ``(f, T^n g)`` off
    them, in integer arithmetic.

    ``counts`` holds every pair count at a difference inside ``bands`` and
    nothing else; a difference outside them was never counted, so reading
    it raises :class:`CoverageError` rather than answer zero.  ``f`` and
    ``g`` are the occurrence windows of the two base levels.

    With ``D`` the common denominator of the coefficient products
    ``c = cf * cg``, every bracket is ``scale = width / D`` times a pair of
    integers: each term ``(c * D, lf - lg)`` adds ``c * D`` times the pair
    count at ``m = n + lf - lg`` to both ends, and ``c * D`` times the
    top-zone count at ``m`` to the upper end when ``c > 0``, to the lower
    end when ``c < 0``.  The top zone of ``m`` is nonzero only once ``|m|``
    reaches ``height - max(top)``; the lags where some term gets there form
    the envelope.  A lag outside the envelope whose terms all miss the
    count keys is exactly zero, so :meth:`nonzero` visits only the others,
    and its walk costs what the count keys and the envelope cost.
    """

    depth: int
    height: int
    scale: Fraction
    terms: list[tuple[int, int]]
    bands: list[Band]
    counts: Counter  # signed difference -> exact pair count
    f: _SetWindow
    g: _SetWindow

    def __post_init__(self):
        shifts = [s for _, s in self.terms]
        # lags from ``envelope_from`` up reach f's top zone with some term,
        # lags up to ``envelope_to`` reach g's
        self.envelope_from = (
            self.height - self.f.top[-1] - max(shifts, default=0) if self.f.top else math.inf
        )
        self.envelope_to = (
            self.g.top[-1] - self.height - min(shifts, default=0) if self.g.top else -math.inf
        )

    def covers(self, lo: int, hi: int) -> bool:
        """Whether every difference in ``[lo, hi]`` was counted."""
        i = bisect.bisect_right(self.bands, lo, key=_START) - 1
        return i >= 0 and hi <= self.bands[i][1]

    def pair_count(self, m: int) -> int:
        if not self.covers(m, m):
            raise CoverageError(f"difference {m} outside the counted bands")
        return self.counts[m]

    def top_zone(self, m: int) -> int:
        """Occurrences that a difference-``m`` pair could still pick up at
        deeper stages: those within ``|m|`` of the tower top."""
        if m == 0:
            return 0
        win = self.f if m > 0 else self.g
        return len(win.top) - bisect.bisect_left(win.top, self.height - abs(m))

    def bracket(self, n: int) -> Interval:
        envelope = n >= self.envelope_from or n <= self.envelope_to
        lo = hi = 0
        for c, s in self.terms:
            k = c * self.pair_count(n + s)
            lo += k
            hi += k
            if envelope:
                t = c * self.top_zone(n + s)
                if c > 0:
                    hi += t
                else:
                    lo += t
        if lo == hi == 0:
            return ZERO
        return (lo * self.scale, hi * self.scale)

    @functools.cached_property
    def keys(self) -> list:
        return [*sorted(self.counts), math.inf]  # a sentinel past every key

    def nonzero(self, ns) -> Iterator[tuple[int, Interval]]:
        """``(n, bracket)`` for each lag of the sorted sequence ``ns`` whose
        bracket is not exactly zero, in order.

        Only lags in the envelope or meeting a count key can be nonzero.
        From each requested lag the next such lag is found by one bisect
        per term on the sorted count keys, and the walk jumps to the first
        requested lag at or past it, so the cost follows the keys and the
        envelope, not the length of ``ns``.  Every lag from ``ns[0]`` to
        ``ns[-1]`` must be covered by the counted bands.
        """
        if ns and not all(self.covers(ns[0] + s, ns[-1] + s) for _, s in self.terms):
            raise CoverageError(f"lags [{ns[0]}, {ns[-1]}] reach past the counted bands")
        i = 0
        while i < len(ns):
            n = self._next_candidate(ns[i])
            i = i if n == ns[i] else bisect.bisect_left(ns, n, i)
            if i < len(ns) and ns[i] == n:
                b = self.bracket(n)
                if b is not ZERO:
                    yield n, b
                i += 1

    def _next_candidate(self, n: int):
        if n <= self.envelope_to or n >= self.envelope_from:
            return n
        keys = self.keys
        return min([self.envelope_from,
                    *(keys[bisect.bisect_left(keys, n + s)] - s for _, s in self.terms)])


def bracket_tables(
    spec: RankOneSpec, f: LevelFunction, intervals, g: Optional[LevelFunction] = None
) -> Iterator[BracketTable]:
    """One engine pass for ``(f, T^n g)`` over the lags in the ``(lo, hi)``
    ``intervals``: the table at every depth from ``max(f.stage, g.stage)``
    down, shallowest first.

    Lags in ``[lo, hi]`` read the differences ``[lo + min shift, hi + max
    shift]``, whose union is the bands; only those are counted.  A count
    at depth ``d + 1`` is ``cuts`` times its depth-``d`` count plus the
    cross-copy pairs at the same difference, so leaving out the other
    differences changes none of these.  The bottom and top windows reach
    as far as the farthest band end.
    """
    g = g or f
    products = [(cf * cg, lf - lg) for lf, cf in f.coefficients for lg, cg in g.coefficients]
    denom = math.lcm(*(c.denominator for c, _ in products))
    terms = [(c.numerator * (denom // c.denominator), s) for c, s in products]
    shifts = [s for _, s in terms]
    low, high = min(shifts, default=0), max(shifts, default=0)
    bands = merge_intervals((lo + low, hi + high) for lo, hi in intervals) if terms else []
    window = max((abs(x) for band in bands for x in band), default=0)
    heights = spec.heights()
    widths = spec.widths()
    d0 = max(f.stage, g.stage)
    wf = wg = _SetWindow(bot=[0], top=[0], maxpos=0)
    for d in range(f.stage, d0):
        wf = wf.step(spec.stages[d - 1], heights[d - 1], heights[d], window)
    for d in range(g.stage, d0):
        wg = wg.step(spec.stages[d - 1], heights[d - 1], heights[d], window)
    # one of the two windows is still the base position 0
    counts = Counter()
    for a in wf.bot:
        _count_shifted(counts, -a, wg.bot, 1, bands)
    for d in range(d0, spec.max_depth + 1):
        yield BracketTable(d, heights[d - 1], widths[d - 1] / denom, terms, bands, counts, wf, wg)
        if d == spec.max_depth:
            break
        st = spec.stages[d - 1]
        h, h_new = heights[d - 1], heights[d]
        offs = st.offsets(h)
        # scaled in place: a copied dict comprehension would be a third live table
        deeper = Counter()
        dict.update(deeper, zip(counts, map(st.cuts.__mul__, counts.values())))
        _count_cross(deeper, offs, wf.top, wg.bot, bands, 1)
        _count_cross(deeper, offs, wg.top, wf.bot, bands, -1)
        counts = deeper
        wf, wg = wf.step(st, h, h_new, window), wg.step(st, h, h_new, window)


@record
class CorrelationSequence:
    """Table ``n -> (lower, upper)`` of certified correlation brackets;
    ``norm_sq`` is ``||f||^2`` of the first function."""

    entries: dict[int, Interval]
    norm_sq: Fraction
    subject: str = ""

    def entry(self, n: int) -> Interval:
        if n not in self.entries:
            raise CoverageError(f"n={n} not covered by sequence '{self.subject}'")
        return self.entries[n]

    def covers(self, lo: int, hi: int) -> bool:
        return all(n in self.entries for n in range(lo, hi + 1))

    def midpoint(self, n: int) -> Fraction:
        a, b = self.entry(n)
        return (a + b) / 2

    def support(self) -> list[int]:
        """Indices whose value is not certified to be zero."""
        return sorted(n for n, b in self.entries.items() if b != ZERO)


def correlation_sequence(
    spec: RankOneSpec,
    f: LevelFunction,
    n_values,
    g: Optional[LevelFunction] = None,
    tolerance: Optional[Fraction] = None,
    subject: str = "",
) -> CorrelationSequence:
    """Certified brackets for ``(f, T^n g)`` over a set of lags, off a single
    engine pass.

    Every bracket is read from the deepest table, the narrowest since
    brackets are nested, and only the lags it does not certify to be zero
    are visited (:meth:`BracketTable.nonzero`).  A ``tolerance`` that some
    bracket there exceeds raises :class:`ToleranceNotReached`, carrying the
    widest; one first met at a shallower depth still yields the deepest
    brackets, never wider.
    """
    g = g or f
    ns = sorted(set(n_values))
    intervals = [(ns[0], ns[-1])] if ns else []
    for table in bracket_tables(spec, f, intervals, g):
        pass  # only the last, deepest table is read; one is alive at a time
    nonzero = dict(table.nonzero(ns))
    gap = max((hi - lo for lo, hi in nonzero.values()), default=Fraction(0))
    if tolerance is not None and gap > tolerance:
        raise ToleranceNotReached(gap)
    entries = dict.fromkeys(ns, ZERO)
    entries.update(nonzero)
    return CorrelationSequence(entries, f.norm_sq(spec), subject)


def autocorrelation(
    spec: RankOneSpec,
    f: LevelFunction,
    n: int,
    tolerance: Optional[Fraction] = None,
) -> Interval:
    """Certified bracket for ``(f, T^n f)``; even in ``n`` for real ``f``."""
    return correlation_sequence(spec, f, [n], tolerance=tolerance).entries[n]


def _abs_interval(iv: Interval) -> Interval:
    """The exact range of ``|x|`` over ``x`` in ``[a, b]``.  If the bracket
    holds 0, ``|x|`` runs from 0 up to the larger of ``-a`` and ``b``;
    otherwise ``x`` keeps one sign, ``|x|`` is monotone on the bracket and
    its extremes are the endpoint magnitudes.  Since ``|x| >= 0``, squaring
    is monotone on that range, so ``summability_report``'s lag-by-lag sums
    of these and of their squares enclose every choice of values inside
    the brackets."""
    a, b = iv
    if a <= 0 <= b:
        return (Fraction(0), max(-a, b))
    return (min(abs(a), abs(b)), max(abs(a), abs(b)))


@record
class SummabilityReport:
    l1: Interval
    l2: Interval
    support: list[int]


def summability_report(
    seq: CorrelationSequence, interval: tuple[int, int]
) -> SummabilityReport:
    """Exact interval bounds for the absolute and squared sums over a lag range."""
    lo, hi = interval
    if not seq.covers(lo, hi):
        raise CoverageError(f"interval [{lo}, {hi}] not covered")
    # a lag outside the support is certified zero and adds nothing
    support = [n for n in seq.support() if lo <= n <= hi]
    l1 = l2 = ZERO
    for n in support:
        a, b = _abs_interval(seq.entries[n])
        l1 = (l1[0] + a, l1[1] + b)
        l2 = (l2[0] + a * a, l2[1] + b * b)
    return SummabilityReport(l1=l1, l2=l2, support=support)


def corr_functional(seq: CorrelationSequence, interval: tuple[int, int]) -> Interval:
    """Bracket for the absolute correlation budget over an index interval."""
    return summability_report(seq, interval).l1


def product_correlation(
    seq_s: CorrelationSequence, seq_t: CorrelationSequence
) -> CorrelationSequence:
    """Entrywise product: the correlation sequence of the tensor-product system.

    Each bracket is sound and tight: ``x * y`` is bilinear, so over the
    rectangle ``[a, b] x [c, d]`` it is monotone in each variable with the
    other fixed and takes its extremes at the corners.  The min and max of
    the four endpoint products therefore enclose every product of values
    inside the two brackets, and both are attained.
    """
    common = set(seq_s.entries) & set(seq_t.entries)
    if not common:
        raise CoverageError("sequences share no lags")
    entries = dict.fromkeys(common, ZERO)  # a product with a zero factor is zero
    for n in common.intersection(seq_s.support(), seq_t.support()):
        a, b = seq_s.entries[n]
        c, d = seq_t.entries[n]
        prods = (a * c, a * d, b * c, b * d)
        entries[n] = (min(prods), max(prods))
    return CorrelationSequence(
        entries=entries,
        norm_sq=seq_s.norm_sq * seq_t.norm_sq,
        subject=f"({seq_s.subject}) x ({seq_t.subject})",
    )
