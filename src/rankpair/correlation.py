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
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .core import LevelFunction, RankOneSpec, StageSpec

Interval = tuple[Fraction, Fraction]
ZERO: Interval = (Fraction(0), Fraction(0))  # shared by every exactly-zero lag


class CoverageError(ValueError):
    """A sequence does not cover the requested index range."""


class ToleranceNotReached(RuntimeError):
    """The spec ran out of stages before the certified gap met the tolerance."""

    def __init__(self, achieved_gap: Fraction):
        super().__init__(f"spec exhausted; achieved gap {achieved_gap}")
        self.achieved_gap = achieved_gap


@dataclass
class _SetWindow:
    """Occurrence positions of one base level near the tower bottom and top."""

    bot: list[int]
    top: list[int]
    maxpos: int

    @classmethod
    def initial(cls) -> "_SetWindow":
        return cls(bot=[0], top=[0], maxpos=0)

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


def _merge(intervals) -> list[Band]:
    """The union of integer intervals as sorted, disjoint bands, with
    adjacent ones joined; empty intervals drop out."""
    bands: list[Band] = []
    for lo, hi in sorted(intervals):
        if lo > hi:
            continue
        if bands and lo <= bands[-1][1] + 1:
            bands[-1] = (bands[-1][0], max(hi, bands[-1][1]))
        else:
            bands.append((lo, hi))
    return bands


def _lag_bands(intervals, f: LevelFunction, g: LevelFunction) -> list[Band]:
    """The differences that brackets over the lag ``intervals`` read: each
    ``[lo, hi]`` reaches ``[lo + min shift, hi + max shift]``, where a
    shift is ``lf - lg`` for a level ``lf`` of ``f`` and ``lg`` of ``g``."""
    shifts = [lf - lg for lf in f.levels for lg in g.levels]
    if not shifts:
        return []
    low, high = min(shifts), max(shifts)
    return _merge((lo + low, hi + high) for lo, hi in intervals)


@dataclass
class PairProfile:
    """Exact difference-count state for a pair of tracked base levels.

    ``counts`` holds every pair count at a difference inside ``bands`` and
    nothing else; a difference outside them was never counted, so reading
    it raises :class:`CoverageError` rather than answer zero.
    """

    depth: int
    height: int
    width: Fraction
    bands: list[Band]
    counts: Counter  # signed difference -> exact pair count
    f: _SetWindow
    g: _SetWindow

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


def _pair_profiles(
    spec: RankOneSpec, stage_f: int, stage_g: int, bands: list[Band]
) -> Iterator[PairProfile]:
    """Yield the profile at every depth from ``max(stage_f, stage_g)`` down,
    counting pairs only at the differences inside the sorted, disjoint
    ``bands``.  A count at depth ``d + 1`` is ``cuts`` times its depth-``d``
    count plus the cross-copy pairs at the same difference, so leaving out
    the other differences changes none of these.  The bottom and top
    windows reach as far as the farthest band."""
    window = max((abs(x) for band in bands for x in band), default=0)
    heights = spec.heights()
    widths = spec.widths()
    d0 = max(stage_f, stage_g)
    wf = wg = _SetWindow.initial()
    for d in range(stage_f, d0):
        wf = wf.step(spec.stages[d - 1], heights[d - 1], heights[d], window)
    for d in range(stage_g, d0):
        wg = wg.step(spec.stages[d - 1], heights[d - 1], heights[d], window)
    # one of the two windows is still the base position 0
    counts = Counter()
    for a in wf.bot:
        _count_shifted(counts, -a, wg.bot, 1, bands)
    prof = PairProfile(
        depth=d0, height=heights[d0 - 1], width=widths[d0 - 1],
        bands=bands, counts=counts, f=wf, g=wg,
    )
    yield prof
    for d in range(d0, spec.max_depth):
        st = spec.stages[d - 1]
        h, h_new = heights[d - 1], heights[d]
        offs = st.offsets(h)
        # scaled in place: a copied dict comprehension would be a third live table
        counts = Counter()
        dict.update(counts, zip(prof.counts, map(st.cuts.__mul__, prof.counts.values())))
        _count_cross(counts, offs, prof.f.top, prof.g.bot, bands, 1)
        _count_cross(counts, offs, prof.g.top, prof.f.bot, bands, -1)
        prof = PairProfile(
            depth=d + 1, height=h_new, width=widths[d],
            bands=bands, counts=counts,
            f=prof.f.step(st, h, h_new, window),
            g=prof.g.step(st, h, h_new, window),
        )
        yield prof


class BracketTable:
    """Brackets for ``(f, T^n g)`` off one profile, in integer arithmetic.

    With ``D`` the common denominator of the coefficient products
    ``c = cf * cg``, every bracket is ``width / D`` times a pair of
    integers: each term ``(lf, lg)`` adds ``c * D`` times the pair count at
    ``m = n + lf - lg`` to both ends, and ``c * D`` times the top-zone count
    at ``m`` to the upper end when ``c > 0``, to the lower end when
    ``c < 0``.  The top zone of ``m`` is nonzero only once ``|m|`` reaches
    ``height - max(top)``; the lags where some term gets there form the
    envelope.  A lag outside the envelope whose terms all miss the count
    keys is exactly zero.
    """

    def __init__(self, prof: PairProfile, f: LevelFunction, g: LevelFunction):
        products = [
            (cf * cg, lf - lg) for lf, cf in f.coefficients for lg, cg in g.coefficients
        ]
        denom = math.lcm(*(c.denominator for c, _ in products))
        self.terms = [(c.numerator * (denom // c.denominator), s) for c, s in products]
        self.scale = prof.width / denom
        self.prof = prof
        shifts = [s for _, s in self.terms]
        # lags from ``envelope_from`` up reach f's top zone with some term,
        # lags up to ``envelope_to`` reach g's
        self.envelope_from = (
            prof.height - prof.f.top[-1] - max(shifts, default=0) if prof.f.top else math.inf
        )
        self.envelope_to = (
            prof.g.top[-1] - prof.height - min(shifts, default=0) if prof.g.top else -math.inf
        )

    def integers(self, n: int) -> tuple[int, int]:
        """The bracket of lag ``n`` in units of ``width / D``."""
        prof = self.prof
        envelope = n >= self.envelope_from or n <= self.envelope_to
        lo = hi = 0
        for c, s in self.terms:
            k = c * prof.pair_count(n + s)
            lo += k
            hi += k
            if envelope:
                t = c * prof.top_zone(n + s)
                if c > 0:
                    hi += t
                else:
                    lo += t
        return lo, hi

    def bracket(self, n: int) -> Interval:
        lo, hi = self.integers(n)
        if lo == hi == 0:
            return ZERO
        return (lo * self.scale, hi * self.scale)

    def spread(self, n: int) -> int:
        """Width of the bracket of lag ``n`` in units of ``width / D``."""
        if self.envelope_to < n < self.envelope_from:
            return 0
        return sum(abs(c) * self.prof.top_zone(n + s) for c, s in self.terms)

    def envelope(self, ns: list[int]) -> list[int]:
        """The lags of the sorted list ``ns`` inside the envelope, farthest
        from 0 first (top zones grow with ``|m|``)."""
        i = bisect.bisect_right(ns, self.envelope_to)
        j = max(i, bisect.bisect_left(ns, self.envelope_from))
        return ns[j:][::-1] + ns[:i]

    def within(self, ns: list[int], tolerance: Fraction) -> bool:
        """Whether every bracket over the sorted lags ``ns`` is at most
        ``tolerance`` wide."""
        if tolerance < 0:  # no bracket is narrower than that
            return not ns
        limit = tolerance / self.scale
        return all(self.spread(n) <= limit for n in self.envelope(ns))

    def widest(self, ns: list[int]) -> Fraction:
        """Width of the widest bracket over the sorted lags ``ns``."""
        return max((self.spread(n) for n in self.envelope(ns)), default=0) * self.scale

    @functools.cached_property
    def keys(self) -> list[int]:
        return sorted(self.prof.counts)

    def first_nonzero(self, lo: int, hi: int) -> Optional[int]:
        """Smallest lag in ``[lo, hi]`` whose bracket is not exactly zero.

        Only lags in the envelope or meeting a count key can be nonzero.
        They are visited in ascending order, each found by one bisect per
        term on the sorted count keys, so the cost follows the keys and the
        envelope, not ``hi - lo``.
        """
        if lo > hi:
            return None
        if not all(self.prof.covers(lo + s, hi + s) for _, s in self.terms):
            raise CoverageError(f"lags [{lo}, {hi}] reach past the counted bands")
        n = lo
        while True:
            n = self._next_candidate(n)
            if n > hi:
                return None
            if self.integers(n) != (0, 0):
                return n
            n += 1

    def _next_candidate(self, n: int):
        best = n if n <= self.envelope_to else max(n, self.envelope_from)
        for _, s in self.terms:
            i = bisect.bisect_left(self.keys, n + s)
            if i < len(self.keys):
                best = min(best, self.keys[i] - s)
        return best


def bracket_tables(
    spec: RankOneSpec, f: LevelFunction, intervals, g: Optional[LevelFunction] = None
) -> Iterator[BracketTable]:
    """Brackets for lags in the ``(lo, hi)`` ``intervals`` off one engine
    pass, one table per depth from ``max(f.stage, g.stage)`` down."""
    g = g or f
    for prof in _pair_profiles(spec, f.stage, g.stage, _lag_bands(intervals, f, g)):
        yield BracketTable(prof, f, g)


@dataclass
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
        return sorted(n for n, (a, b) in self.entries.items() if a != 0 or b != 0)


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

    Without a ``tolerance`` every bracket is read from the deepest profile.
    With one, the table is read from the shallowest profile at which every
    bracket is at most ``tolerance`` wide; :class:`ToleranceNotReached`
    (carrying the widest final bracket) is raised when the spec ends first.
    """
    g = g or f
    ns = sorted(set(n_values))
    intervals = [(ns[0], ns[-1])] if ns else []
    for table in bracket_tables(spec, f, intervals, g):
        if tolerance is not None and table.within(ns, tolerance):
            break
    else:
        if tolerance is not None:
            raise ToleranceNotReached(table.widest(ns))
    entries = {n: table.bracket(n) for n in ns}
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
    a, b = iv
    if a <= 0 <= b:
        return (Fraction(0), max(-a, b))
    return (min(abs(a), abs(b)), max(abs(a), abs(b)))


@dataclass
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
    l1 = [Fraction(0), Fraction(0)]
    l2 = [Fraction(0), Fraction(0)]
    support = []
    for n in range(lo, hi + 1):
        a, b = _abs_interval(seq.entry(n))
        l1[0] += a
        l1[1] += b
        l2[0] += a * a
        l2[1] += b * b
        if b != 0:
            support.append(n)
    return SummabilityReport(l1=(l1[0], l1[1]), l2=(l2[0], l2[1]), support=support)


def corr_functional(seq: CorrelationSequence, interval: tuple[int, int]) -> Interval:
    """Bracket for the absolute correlation budget over an index interval."""
    return summability_report(seq, interval).l1


def product_correlation(
    seq_s: CorrelationSequence, seq_t: CorrelationSequence
) -> CorrelationSequence:
    """Entrywise product: the correlation sequence of the tensor-product system."""
    common = set(seq_s.entries) & set(seq_t.entries)
    if not common:
        raise CoverageError("sequences share no lags")
    entries = {}
    for n in common:
        a, b = seq_s.entries[n]
        c, d = seq_t.entries[n]
        prods = (a * c, a * d, b * c, b * d)
        entries[n] = (min(prods), max(prods))
    return CorrelationSequence(
        entries=entries,
        norm_sq=seq_s.norm_sq * seq_t.norm_sq,
        subject=f"({seq_s.subject}) x ({seq_t.subject})",
    )
