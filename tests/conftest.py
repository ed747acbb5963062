"""Shared helpers: an independent brute-force correlation oracle.

The oracle rebuilds each tower as a literal list of cell labels (plain
list concatenation, no offset recursion) and brackets correlations from
pairwise differences plus escape counts read off the same list.  It shares
no code path with the recursive pair-count engine it is used to check, nor
with ``occurrence_set``.
"""

from collections import Counter
from fractions import Fraction

import pytest
from rankpair import LevelFunction, RankOneSpec


def tower_labels(spec: RankOneSpec, stage: int) -> list[int]:
    """Cell labels of the deepest tower: the stage-``stage`` level index of
    each cell, or -1 for spacer levels added later."""
    labels = list(range(spec.heights()[stage - 1]))
    for st in spec.stages[stage - 1 :]:
        stacked = []
        for i in range(st.cuts):
            stacked.extend(labels)
            stacked.extend([-1] * st.spacers[i])
        labels = stacked
    return labels


def base_positions(spec: RankOneSpec, stage: int) -> list[int]:
    """Positions of the stage-``stage`` base level in the deepest tower,
    read off its labels: the start of each copy of the stage-``stage``
    tower."""
    return [q for q, lab in enumerate(tower_labels(spec, stage)) if lab == 0]


def oracle_bracket(
    spec: RankOneSpec, f: LevelFunction, g: LevelFunction, n: int
) -> tuple[Fraction, Fraction]:
    """Bracket for ``(f, T^n g)`` by full enumeration at the deepest tower.

    For each level ``lf`` of ``f`` and ``lg`` of ``g``, the lower value
    counts the copies ``a`` of ``f``'s tower and ``b`` of ``g``'s with
    ``b - a = m = n + lf - lg``.  The uncertainty adds the copies whose
    partner at distance ``|m|`` would start past the last label (copies of
    ``f`` for ``m > 0``, of ``g`` for ``m < 0``): those partners lie
    outside the constructed region, and deeper stages may still supply
    them.  A negative coefficient swaps the ends of its term.
    """
    height = spec.heights()[-1]
    width = spec.widths()[-1]
    base_f, base_g = base_positions(spec, f.stage), base_positions(spec, g.stage)
    diffs = Counter(b - a for a in base_f for b in base_g)
    lo = hi = Fraction(0)
    for lf, cf in f.coefficients:
        for lg, cg in g.coefficients:
            m = n + lf - lg
            lower = diffs[m] * width
            starts = base_f if m > 0 else base_g if m < 0 else []
            escapes = sum(1 for a in starts if a + abs(m) >= height)
            upper = lower + escapes * width
            coeff = cf * cg
            lo += coeff * (lower if coeff >= 0 else upper)
            hi += coeff * (upper if coeff >= 0 else lower)
    return (lo, hi)


def oracle_autocorrelation(
    spec: RankOneSpec, f: LevelFunction, n: int
) -> tuple[Fraction, Fraction]:
    """Bracket for ``(f, T^n f)``: :func:`oracle_bracket` with ``g = f``."""
    return oracle_bracket(spec, f, f, n)


@pytest.fixture
def small_spec() -> RankOneSpec:
    from rankpair import StageSpec

    return RankOneSpec(
        stages=(StageSpec(2, (1, 0)), StageSpec(3, (0, 2, 1)))
    )
