"""Exact cutting-and-stacking towers.

A rank-one transformation is described stage by stage: cut the current
column into ``cuts`` vertical copies of equal width, put ``spacers[i]``
fresh levels on top of copy ``i`` (every copy gets an entry, including the
last one), and restack left to right.  All bookkeeping is exact: heights
are integers, level widths and measures are ``fractions.Fraction``.

Tower depths are 1-based: depth ``d`` is the tower obtained after applying
stages ``0 .. d-2``, so a spec with ``n`` stages defines towers at depths
``1 .. n+1``.  A finite spec only defines the transformation on the
constructed region; an orbit that runs off the deepest tower "escapes"
(a normal return value, not an error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional


@dataclass(frozen=True)
class StageSpec:
    """One cut-and-stack step: ``cuts`` columns, one spacer count per column."""

    cuts: int
    spacers: tuple[int, ...]

    def issues(self) -> list[str]:
        out = []
        if self.cuts < 2:
            out.append(f"cuts < 2 (got {self.cuts})")
        if len(self.spacers) != self.cuts:
            out.append(f"spacers has {len(self.spacers)} entries, expected {self.cuts}")
        if any(s < 0 for s in self.spacers):
            out.append("negative spacer")
        return out

    def offsets(self, height: int) -> list[int]:
        """Start position of each column copy inside the next tower."""
        offs = [0]
        for i in range(self.cuts - 1):
            offs.append(offs[-1] + height + self.spacers[i])
        return offs


@dataclass(frozen=True)
class RankOneSpec:
    """A finite cutting-and-stacking recipe."""

    base_height: int = 1
    stages: tuple[StageSpec, ...] = field(kw_only=True)

    @property
    def max_depth(self) -> int:
        return len(self.stages) + 1

    def heights(self) -> list[int]:
        h = [self.base_height]
        for st in self.stages:
            h.append(st.cuts * h[-1] + sum(st.spacers))
        return h

    def widths(self) -> list[Fraction]:
        w = [Fraction(1)]
        for st in self.stages:
            w.append(w[-1] / st.cuts)
        return w


@dataclass(frozen=True)
class OccurrenceSet:
    """Positions of a fixed base level inside a deeper tower."""

    stage_of_level: int
    depth: int
    positions: tuple[int, ...]
    height: int
    width: Fraction


@dataclass(frozen=True)
class LevelFunction:
    """A rational linear combination of level indicators of one tower.

    ``coefficients`` maps a level index of the stage-``stage`` tower to its
    weight; unlisted levels carry weight zero.
    """

    stage: int
    coefficients: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, stage: int, coeffs: dict[int, Fraction]) -> "LevelFunction":
        items = tuple(sorted((l, Fraction(c)) for l, c in coeffs.items() if c != 0))
        return cls(stage, items)

    @classmethod
    def indicator(cls, stage: int, level: int = 0) -> "LevelFunction":
        return cls(stage, ((level, Fraction(1)),))

    @property
    def levels(self) -> list[int]:
        return [l for l, _ in self.coefficients]

    def norm_sq(self, spec: RankOneSpec) -> Fraction:
        w = spec.widths()[self.stage - 1]
        return sum((c * c * w for _, c in self.coefficients), Fraction(0))

    def issues(self, spec: RankOneSpec) -> list[str]:
        out = []
        if not self.coefficients:
            out.append("empty level set")
        h = spec.heights()[self.stage - 1]
        for l, _ in self.coefficients:
            if not 0 <= l < h:
                out.append(f"level {l} outside [0, {h})")
        return out


@dataclass
class ValidationReport:
    ok: bool
    issues: list[str]


def validate_spec(spec: RankOneSpec) -> ValidationReport:
    """Structural check; violations are reported, never raised."""
    issues = []
    if spec.base_height < 1:
        issues.append(f"base_height < 1 (got {spec.base_height})")
    for i, st in enumerate(spec.stages, start=1):
        issues.extend(f"stage {i}: {msg}" for msg in st.issues())
    return ValidationReport(ok=not issues, issues=issues)


def occurrence_set(spec: RankOneSpec, level_stage: int, depth: int) -> OccurrenceSet:
    """Exact positions of the stage-``level_stage`` base level at ``depth``.

    Materialises the full position list (its length is the product of the
    intervening cut counts); use the correlation module for deep towers.
    """
    if not 1 <= level_stage <= depth <= spec.max_depth:
        raise IndexError(
            f"need 1 <= level_stage <= depth <= {spec.max_depth}, "
            f"got level_stage={level_stage}, depth={depth}"
        )
    heights = spec.heights()
    positions = [0]
    h = heights[level_stage - 1]
    for st in spec.stages[level_stage - 1 : depth - 1]:
        offs = st.offsets(h)
        positions = [off + p for off in offs for p in positions]
        h = st.cuts * h + sum(st.spacers)
    positions.sort()
    return OccurrenceSet(
        stage_of_level=level_stage,
        depth=depth,
        positions=tuple(positions),
        height=heights[depth - 1],
        width=spec.widths()[depth - 1],
    )


class EscapeCapError(RuntimeError):
    """Too large a share of a push would escape the constructed region."""


def point_map(
    spec: RankOneSpec, depth: int, position: int, steps: int
) -> Optional[tuple[int, int]]:
    """Move a tower cell ``steps`` levels along the orbit.

    Cells are tracked through their leftmost-column representative, so the
    stacked deeper towers simply extend the climb: the image of ``position``
    is ``position + steps`` at the shallowest depth that contains it.
    Returns ``(depth, position)``, or ``None`` when the orbit leaves the
    constructed region (escape is a normal outcome for a finite spec).
    """
    heights = spec.heights()
    if not 1 <= depth <= spec.max_depth:
        raise IndexError(f"depth {depth} outside [1, {spec.max_depth}]")
    if not 0 <= position < heights[depth - 1]:
        raise ValueError(f"position {position} outside [0, {heights[depth - 1]})")
    q = position + steps
    d = depth
    while not 0 <= q < heights[d - 1]:
        if d == spec.max_depth:
            return None
        d += 1
    return (d, q)
