"""Certified correlation brackets for level functions.

Every value ``(f, T^n g)`` reduces to counting position pairs at fixed
differences between the occurrence sets of two tracked base levels.  With
``C_d(m)`` the pairs at difference ``m`` in the depth-``d`` tower, a stage
whose copies start at ``offs`` gives ``C_{d+1}(m) = sum over i, j of
C_d(m - (offs[j] - offs[i]))`` (the coefficient form of the generalised
Riesz product of a rank-one map; Choksi & Nadkarni, *Canad. Math. Bull.*
37, 1994), and ``C_d`` is zero off ``[-maxpos_f(d), maxpos_g(d)]``.  So a
range query costs about what its nonzero output costs, whatever the
horizon, and names the next pair past its range: a walk steps from pair
to pair.  Each depth yields a bracket ``[lower, upper]``: ``lower`` counts
the pairs inside the tower, the defect is bounded by the occurrences
within reach of its top, and deepening the tower never widens a bracket.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction
from typing import Iterator, Optional

from .core import LevelFunction, RankOneSpec, ToleranceNotReached, record

Interval = tuple[Fraction, Fraction]
ZERO: Interval = (Fraction(0), Fraction(0))  # shared by every exactly-zero lag
MEMO_CAP = 1 << 20  # pair counts a range query holds at once, memo ranges included
WINDOW = MEMO_CAP >> 8  # the widest window of lags a walk reads in one range query


class CoverageError(ValueError):
    """A sequence does not cover the requested index range."""


class _Pass:
    """One engine pass over the base levels of stages ``f_stage`` and
    ``g_stage``: pair counts by difference range and occurrence counts near
    the tower top, at every depth from the shallower stage ``s``."""

    def __init__(self, spec: RankOneSpec, f_stage: int, g_stage: int):
        self.offsets = [st.offsets(h) for st, h in zip(spec.stages, spec.heights())]
        self.f_stage, self.g_stage = f_stage, g_stage
        self.reach = {s: self._reach(s) for s in (f_stage, g_stage)}
        self.s = s = min(f_stage, g_stage)
        # depth -> the differences that can have a pair, (-maxpos_f, maxpos_g);
        # until its stage, a level is the one position 0
        fmax, gmax = self.reach[f_stage][0], self.reach[g_stage][0]
        self.support = {d: (-fmax[max(d - f_stage, 0)], gmax[max(d - g_stage, 0)])
                        for d in range(s, spec.max_depth + 1)}
        # depth -> (D, how many pairs of copies give D) of the stage that
        # built it: a level has a copy at each offset once its stage is
        # below the depth, and the one copy at 0 until then
        self.deltas = {d: sorted(Counter(b - a for b in (offs if d > g_stage else [0])
                                         for a in (offs if d > f_stage else [0])).items())
                       for d, offs in enumerate(self.offsets[s - 1:], s + 1)}
        self.memo, self.held = {}, 0  # the query under way's memo, and the counts it holds

    def _reach(self, s: int) -> tuple[list[int], list[int]]:
        """The largest position and the number of occurrences of the
        stage-``s`` base level, by depth from ``s``."""
        maxpos, count = [0], [1]
        for offs in self.offsets[s - 1:]:
            maxpos.append(offs[-1] + maxpos[-1])
            count.append(count[-1] * len(offs))
        return maxpos, count

    def _hold(self, entries: int) -> None:
        """Count ``entries`` more pair counts held, which stops past :data:`MEMO_CAP`."""
        self.held += entries
        if self.held > MEMO_CAP:
            raise MemoryError(f"correlation engine: pair counts held over the cap {MEMO_CAP}")

    def pairs(self, d: int, lo: int, hi: int) -> tuple[list[tuple[int, int]], float]:
        """``(m, C_d(m))`` for each difference ``m`` in ``[lo, hi]`` with a
        pair at depth ``d``, in order of ``m``, and the first difference
        past ``hi`` with a pair, or ``inf``.  The sub-queries run off an
        explicit stack, so any depth fits Python's recursion limit, and are
        memoised in this query's own memo: no count outlives the query."""
        stack, got = [(None, self._query(d, lo, hi))], None
        try:
            while stack:
                key, query = stack[-1]
                try:
                    sub = query.send(got)
                except StopIteration as done:
                    stack.pop()
                    got = done.value
                    if stack:
                        self.memo[key] = got
                        self._hold(1 + len(got[0]))
                    continue
                got = self.memo.get(sub)
                if got is None:
                    stack.append((sub, self._query(*sub)))
            return got
        finally:
            self.memo, self.held = {}, 0  # fresh for the next query

    def _query(self, d: int, lo: int, hi: int):
        """The query ``(d, lo, hi)`` of :meth:`pairs`: yields each sub-query,
        is sent its result, and returns its own.  A support's start has a
        pair (f's last occurrence, g's first), so the next pair past ``hi``
        is that, or the first branch past ``hi``'s, or one a branch met."""
        factor, after = 1, math.inf
        while True:
            low, high = self.support[d]
            if hi < low or lo > high:  # wholly below the support, or above it
                return [], (low if hi < low else after)
            lo, hi = max(lo, low), min(hi, high)
            if d == self.s:
                return [(0, factor)], after  # the two levels' one pair, inside [lo, hi] after the clip
            low, high = self.support[d - 1]
            # the differences D whose branch [lo - D, hi - D] meets the support
            deltas = self.deltas[d]
            end = bisect.bisect_left(deltas, (hi - low + 1,))
            if end < len(deltas):
                after = min(after, deltas[end][0] + low)
            branches = deltas[bisect.bisect_left(deltas, (lo - high,)):end]
            if len(branches) != 1 or branches[0][0]:
                break
            # the copy-to-itself pairs alone: the same range one depth up
            factor *= branches[0][1]
            d -= 1
        acc: dict[int, int] = {}
        for delta, mult in branches:
            below, past = yield (d - 1, max(lo - delta, low), min(hi - delta, high))
            size = len(acc)
            for m, c in below:
                acc[m + delta] = acc.get(m + delta, 0) + factor * mult * c
            self._hold(len(acc) - size)
            after = min(after, past + delta)
        self.held -= len(acc)
        return sorted(acc.items()), after

    def above(self, s: int, d: int, x: int) -> int:
        """The occurrences of the stage-``s`` base level at positions
        ``>= x`` of the depth-``d`` tower.  The copies of the tower below
        that start at ``x`` or later are whole, each adding the product of
        the cuts below it; the copy before them is the one partial copy."""
        maxpos, count = self.reach[s]
        total = 0
        while x > 0:
            if d == s or x > maxpos[d - s]:
                return total
            offs = self.offsets[d - 2]
            i = bisect.bisect_left(offs, x)
            total += (len(offs) - i) * count[d - 1 - s]
            x -= offs[i - 1]
            d -= 1
        return total + count[d - s]


def _next_lag(ns, n: int) -> Optional[int]:
    """The first lag of the sorted sequence ``ns`` at or past ``n >= ns[0]``,
    or None.  A ``range`` is stepped by arithmetic, never by ``len``."""
    if isinstance(ns, range):
        x = n + (ns.start - n) % ns.step
        return x if x in ns else None
    i = bisect.bisect_left(ns, n)
    return ns[i] if i < len(ns) else None


@record
class BracketTable:
    """The brackets for ``(f, T^n g)`` at one depth, off the pass ``engine``.

    With ``D`` the common denominator of the products ``c = cf * cg``, a
    bracket is ``scale = width / D`` times two integers: each term ``(c *
    D, lf - lg)`` adds ``c * D`` times the pair count at ``m = n + lf - lg``
    to both ends, and times the top-zone count at ``m`` to the end its sign
    widens.  The lags where some term reaches a nonzero top zone form the
    envelope; a lag outside it whose terms all miss a pair is exactly zero.
    """

    depth: int
    height: int
    scale: Fraction
    terms: list[tuple[int, int]]
    engine: _Pass

    def __post_init__(self):
        self.shifts = sorted({s for _, s in self.terms}) or [0]
        low, high = self.engine.support[self.depth]
        # lags from envelope_from up reach f's top zone, up to envelope_to g's
        self.envelope_from = self.height + low - self.shifts[-1]
        self.envelope_to = high - self.height - self.shifts[0]

    def top_zone(self, m: int) -> int:
        """Occurrences that a difference-``m`` pair could still pick up at
        deeper stages: those within ``|m|`` of the tower top."""
        stage = self.engine.f_stage if m > 0 else self.engine.g_stage
        return self.engine.above(stage, self.depth, self.height - abs(m))

    def bracket(self, n: int) -> Interval:
        return dict(self.nonzero([n])).get(n, ZERO)

    def _bracket(self, n: int, counts: dict[int, int]) -> Interval:
        envelope = n >= self.envelope_from or n <= self.envelope_to
        lo = hi = 0
        for c, s in self.terms:
            k = c * counts.get(n + s, 0)
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

    def nonzero(self, ns) -> Iterator[tuple[int, Interval]]:
        """``(n, bracket)`` for each lag of the sorted sequence ``ns`` (a
        list or a ``range`` of any length) whose bracket is not exactly
        zero, in order, lazily.

        Each window of lags reads one range query; its width doubles from 1
        up to :data:`WINDOW`, so stopping early never pays for a wide one.
        Inside the envelope every lag is visited, and is nonzero.  Outside
        it only the differences with a pair, less each shift, are, and the
        next window starts at the first lag that a pair past this window
        reaches (by the query's ``after``), or at the envelope if sooner:
        a stretch with no pair costs one query.
        """
        if not ns or not self.terms:
            return
        n, last, width = ns[0], ns[-1], 1
        while n is not None:
            outside = self.envelope_to < n < self.envelope_from
            end = (self.envelope_from - 1 if outside
                   else self.envelope_to if n <= self.envelope_to else last)
            hi = min(n + width - 1, end, last)
            found, after = self.engine.pairs(self.depth, n + self.shifts[0], hi + self.shifts[-1])
            counts = dict(found)
            width = min(2 * width, WINDOW)
            if outside:
                reached = sorted({m - s for m in counts for s in self.shifts if m - s >= n})
                i = bisect.bisect_right(reached, hi)
                lags = [x for x in reached[:i] if _next_lag(ns, x) == x]
                skip = min(*reached[i:i + 1], after - self.shifts[-1], self.envelope_from)
            else:  # n is a lag of ns
                lags = (range(n, hi + 1, ns.step) if isinstance(ns, range)
                        else ns[bisect.bisect_left(ns, n):bisect.bisect_right(ns, hi)])
                skip = hi + 1
            for lag in lags:
                b = self._bracket(lag, counts)
                if b is not ZERO:
                    yield lag, b
            n = _next_lag(ns, skip)


def bracket_tables(
    spec: RankOneSpec, f: LevelFunction, g: Optional[LevelFunction] = None
) -> Iterator[BracketTable]:
    """The table for ``(f, T^n g)`` at every depth from ``max(f.stage,
    g.stage)`` down, shallowest first, all reading one engine pass."""
    g = g or f
    products = [(cf * cg, lf - lg) for lf, cf in f.coefficients for lg, cg in g.coefficients]
    denom = math.lcm(*(c.denominator for c, _ in products))
    terms = [(c.numerator * (denom // c.denominator), s) for c, s in products if c]
    engine = _Pass(spec, f.stage, g.stage)
    heights, widths = spec.heights(), spec.widths()
    for d in range(max(f.stage, g.stage), spec.max_depth + 1):
        yield BracketTable(d, heights[d - 1], widths[d - 1] / denom, terms, engine)


@record
class CorrelationSequence:
    """Table ``n -> (lower, upper)`` of certified correlation brackets;
    ``norm_sq`` is ``||f||^2`` of the first function."""

    entries: dict[int, Interval]
    norm_sq: Fraction
    subject: str = ""

    def entry(self, n: int) -> Interval:
        self.require(n, n)
        return self.entries[n]

    def require(self, lo: int, hi: int) -> None:
        """Raise :class:`CoverageError`, naming the first missing lag, unless
        the table holds every lag of ``[lo, hi]``."""
        if not all(map(self.entries.__contains__, range(lo, hi + 1))):
            n = next(n for n in range(lo, hi + 1) if n not in self.entries)
            raise CoverageError(f"n={n} not covered by sequence '{self.subject}'")

    def midpoint(self, n: int) -> Fraction:
        a, b = self.entry(n)
        return a if a == b else (a + b) / 2

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
    widest.
    """
    ns = sorted(set(n_values))
    *_, table = bracket_tables(spec, f, g)
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
    seq.require(lo, hi)
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
