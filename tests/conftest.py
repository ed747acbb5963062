"""Shared helpers: an independent brute-force correlation oracle.

The oracle rebuilds each tower as a literal list of cell labels (plain
list concatenation, no offset recursion) and brackets correlations from
pairwise differences plus escape counts read off the same list.  It shares
no code path with the windowed pair-count engine it is used to check.
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


def oracle_autocorrelation(
    spec: RankOneSpec, f: LevelFunction, n: int
) -> tuple[Fraction, Fraction]:
    """Bracket for ``(f, T^n f)`` by full enumeration at the deepest tower.

    The lower value counts realized pairs; the uncertainty adds, for every
    needed level-difference ``m``, the occurrences ``a`` whose image
    ``a + |m|`` runs past the last label, so escapes the constructed region
    and may still land on anything.
    """
    depth = spec.max_depth
    labels = tower_labels(spec, f.stage)
    base = [q for q, lab in enumerate(labels) if lab == 0]
    diffs = Counter(b - a for a in base for b in base)
    width = spec.widths()[depth - 1]
    lo = Fraction(0)
    hi = Fraction(0)
    for lf, cf in f.coefficients:
        for lg, cg in f.coefficients:
            m = n + lf - lg
            coeff = cf * cg
            lower = diffs[m] * width
            escapes = sum(1 for a in base if a + abs(m) >= len(labels))
            upper = lower + (escapes if m != 0 else 0) * width
            if coeff >= 0:
                lo += coeff * lower
                hi += coeff * upper
            else:
                lo += coeff * upper
                hi += coeff * lower
    return (lo, hi)


@pytest.fixture
def small_spec() -> RankOneSpec:
    from rankpair import StageSpec

    return RankOneSpec(
        stages=(StageSpec(2, (1, 0)), StageSpec(3, (0, 2, 1)))
    )
