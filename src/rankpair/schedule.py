"""Interleaved interval systems driving the paired construction.

A schedule is a list of blocks, each holding four closed integer intervals
``I, I~, J, J~`` with ``I~`` inside ``J`` and ``J~`` inside ``I``.  The
``I`` and ``J`` families march strictly to the right and jointly cover
``[1, horizon]``; the tilde intervals sit in the complementary stretches
and host the generic (rigidity / polynomial-limit) stages.  Tilde
intervals may be empty: minimal examples have nowhere to put them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

IntInterval = Optional[tuple[int, int]]  # closed [a, b]; None = empty


def _contains(outer: IntInterval, inner: IntInterval) -> bool:
    if inner is None:
        return True
    if outer is None:
        return False
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _valid(iv: IntInterval) -> bool:
    return iv is None or (iv[0] >= 1 and iv[0] <= iv[1])


@dataclass(frozen=True)
class ScheduleBlock:
    i: tuple[int, int]
    j: tuple[int, int]
    i_tilde: IntInterval = None
    j_tilde: IntInterval = None


@dataclass(frozen=True)
class IntervalSchedule:
    horizon: int
    blocks: tuple[ScheduleBlock, ...]


def validate_schedule(s: IntervalSchedule) -> list[str]:
    """Check containment, ordering, layout and coverage; report, never raise."""
    issues = []
    for k, b in enumerate(s.blocks, start=1):
        for name, iv in (("I", b.i), ("J", b.j), ("I~", b.i_tilde), ("J~", b.j_tilde)):
            if not _valid(iv):
                issues.append(f"block {k}: {name} is not a valid interval: {iv}")
        if not _contains(b.j, b.i_tilde):
            issues.append(f"block {k}: I~ not contained in J")
        if not _contains(b.i, b.j_tilde):
            issues.append(f"block {k}: J~ not contained in I")
        if b.i[0] > b.j[0] or b.i[1] > b.j[1]:
            issues.append(f"block {k}: J must start and end no earlier than I")
    for k in range(1, len(s.blocks)):
        if s.blocks[k - 1].i[1] >= s.blocks[k].i[0]:
            issues.append(f"I intervals of blocks {k} and {k + 1} do not strictly increase")
        if s.blocks[k - 1].j[1] >= s.blocks[k].j[0]:
            issues.append(f"J intervals of blocks {k} and {k + 1} do not strictly increase")
    spans = sorted(
        iv for b in s.blocks for iv in (b.i, b.j) if iv is not None
    )
    covered_to = 0
    for a, b in spans:
        if a > covered_to + 1:
            break
        covered_to = max(covered_to, b)
    if covered_to < s.horizon:
        issues.append(f"uncovered: {covered_to + 1}")
    return issues


def generate_schedule(growth: Fraction | int = 3, horizon: int = 100) -> IntervalSchedule:
    """Deterministic geometric schedule covering ``[1, horizon]``.

    Breakpoints start at 2, grow by a factor of ``growth`` (rounded down)
    and are consumed in the cyclic order (block start, previous J end, J
    start, block end), which yields overlapping I and J chains whose gaps
    host the tilde intervals.
    The last block may run past the horizon; coverage is what matters.
    """
    growth = Fraction(growth)
    if growth < 2:
        raise ValueError("growth must be at least 2")
    if horizon < 1:
        raise ValueError("horizon must be positive")

    if horizon == 1:
        return IntervalSchedule(
            blocks=(ScheduleBlock(i=(1, 1), j=(1, 1)),), horizon=1
        )

    def grid():
        p = 2
        while True:
            yield p
            p = int(p * growth)  # at least 2 p, since growth >= 2

    points = grid()
    # breakpoints: alpha_n < gamma_n < beta_n bound I_n and the start of J_n;
    # delta_n closes J_n strictly after the next block opens.
    alphas, gammas, betas, deltas = [0], [next(points)], [next(points)], []
    while betas[-1] < horizon:
        alphas.append(next(points))
        deltas.append(next(points))
        gammas.append(next(points))
        betas.append(next(points))
    deltas.append(max(next(points), horizon))

    blocks = []
    n_blocks = len(betas)
    for k in range(n_blocks):
        i = (alphas[k] + 1, betas[k])
        j = (gammas[k] + 1, deltas[k])
        if k + 1 < n_blocks:
            i_tilde = (betas[k] + 1, alphas[k + 1])
        else:
            i_tilde = (betas[k] + 1, deltas[k]) if betas[k] < deltas[k] else None
        lo = (deltas[k - 1] if k else alphas[k]) + 1
        j_tilde = (lo, gammas[k]) if lo <= gammas[k] else None
        blocks.append(ScheduleBlock(i=i, j=j, i_tilde=i_tilde, j_tilde=j_tilde))
    return IntervalSchedule(blocks=tuple(blocks), horizon=horizon)
