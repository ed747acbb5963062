"""Planning the paired constructions and their machine-checkable certificates.

One transformation kills its autocorrelations on the ``I`` intervals, the
other on the ``J`` intervals; since the two families cover the horizon,
the product correlation vanishes wherever either factor does.  Blocking
stages achieve the zeros with uniformly large spacers (every new pair
difference jumps past the forbidden interval); generic stages realise a
spacer histogram inside the tilde budgets, which yields rigidity (point
mass at 0) and finite polynomial weak limits in general.

All certificate verdicts are recomputed from the correlation module, so a
certificate can be re-checked from the emitted spec alone.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import LevelFunction, RankOneSpec, StageSpec, validate_spec
# correlation_sequence is bound only for the traced pass of perfbench/layers.py to wrap
from .correlation import BracketTable, bracket_tables, correlation_sequence  # noqa: F401
from .schedule import IntervalSchedule

BLOCKING_CUTS = 2  # columns of every blocking and closing stage


class PlanError(RuntimeError):
    pass


class UnsupportedClaim(ValueError):
    """The spec has no stage that realises a polynomial claim."""


@dataclass(frozen=True)
class PolynomialSpec:
    """Finite table ``z -> a_z`` of non-negative powers and coefficients, mass <= 1."""

    coefficients: tuple[tuple[int, Fraction], ...]

    @classmethod
    def from_dict(cls, coeffs: dict[int, Fraction]) -> "PolynomialSpec":
        items = tuple(sorted((z, Fraction(a)) for z, a in coeffs.items() if a != 0))
        poly = cls(items)
        poly.check()
        return poly

    @classmethod
    def delta(cls, z: int = 0) -> "PolynomialSpec":
        return cls(((z, Fraction(1)),))

    @property
    def mass(self) -> Fraction:
        return sum((a for _, a in self.coefficients), Fraction(0))

    def check(self) -> None:
        # a power is a spacer count, which cannot be negative
        if any(z < 0 for z, _ in self.coefficients):
            raise ValueError("polynomial powers must be non-negative")
        if any(a < 0 for _, a in self.coefficients):
            raise ValueError("polynomial coefficients must be non-negative")
        if self.mass > 1:
            raise ValueError(f"polynomial mass {self.mass} exceeds 1")

    def is_rigidity(self) -> bool:
        return self.coefficients == ((0, Fraction(1)),)


def design_blocking_stage(
    current_height: int,
    forbidden: tuple[int, int],
    max_position: int,
) -> StageSpec:
    """A stage placing every new pair difference strictly past ``forbidden``.

    The smallest new difference is the inter-copy gap minus the largest
    existing occurrence position, so the spacer budgets for ``max_position``.
    All columns (including the last) receive the same spacer, so the gap
    between the topmost occurrence and the tower top also grows by it --
    that gap is what lets zero claims be certified with tolerance 0.
    """
    lo, hi = forbidden
    if lo < 1 or hi < lo:
        raise ValueError(f"bad forbidden interval [{lo}, {hi}]")
    if current_height < 1:
        raise ValueError("current_height must be positive")
    s = max(hi - current_height + max_position + 1, 0)
    return StageSpec(cuts=BLOCKING_CUTS, spacers=(s,) * BLOCKING_CUTS)


def apportion(poly: PolynomialSpec, cuts: int) -> dict[int, int]:
    """Largest-remainder split of ``cuts`` columns among the spacer values."""
    shares = [(z, a * cuts) for z, a in poly.coefficients]
    counts = {z: int(share) for z, share in shares}
    leftover = [(share - counts[z], z) for z, share in shares]
    room = cuts - sum(counts.values())
    extra = int(sum(r for r, _ in leftover))  # fractional parts to hand out
    for _, z in sorted(leftover, key=lambda t: (-t[0], t[1]))[:min(room, extra)]:
        counts[z] += 1
    return counts


def rounding_mass(poly: PolynomialSpec, cuts: int) -> Fraction:
    counts = apportion(poly, cuts)
    return sum(
        (abs(a - Fraction(counts.get(z, 0), cuts)) for z, a in poly.coefficients),
        Fraction(0),
    )


def design_generic_stage(
    current_height: int,
    budget: tuple[int, int],
    poly: PolynomialSpec,
    cuts: int,
    max_position: Optional[int] = None,
) -> StageSpec:
    """A stage whose spacer histogram realises ``poly`` within ``budget``.

    Mass missing from the polynomial is assigned to escape columns whose
    spacer equals the current height: that pushes their transition past
    every difference the pre-stage tower can realise, so they contribute
    exactly zero to the pre-stage correlations the stage is meant to copy.
    Spacers are laid out in ascending value order, escape columns last.
    """
    poly.check()
    lo, hi = budget
    if lo < 1 or hi < lo:
        raise ValueError(f"bad budget interval [{lo}, {hi}]")
    if max_position is None:
        max_position = current_height - 1  # worst case: occurrences everywhere
    counts = apportion(poly, cuts)
    escape = cuts - sum(counts.values())
    spacers = []
    for z, m in sorted(counts.items()):
        spacers.extend([z] * m)
    spacers.extend([current_height] * escape)
    stage = StageSpec(cuts=cuts, spacers=tuple(spacers))
    # new pair differences span [h + smallest inter-copy gap - maxpos, reach];
    # both ends must land inside the budget
    reach = stage.offsets(current_height)[-1] + max_position
    min_new = current_height + min(spacers[:-1], default=0) - max_position
    if min_new < lo or reach > hi:
        raise PlanError(
            f"generic stage with {cuts} cuts spans [{min_new}, {reach}], "
            f"outside budget [{lo}, {hi}] at height {current_height}"
        )
    return stage


@dataclass(frozen=True)
class GenericPolicy:
    generic_cuts: int = 4
    generic_poly: PolynomialSpec = PolynomialSpec.delta(0)

    def __post_init__(self):
        if self.generic_cuts < 2:
            raise ValueError(f"policy needs generic cuts >= 2, got {self.generic_cuts}")


@dataclass
class ZeroIntervalClaim:
    interval: tuple[int, int]        # as scheduled
    checked: tuple[int, int]         # clamped to the verification horizon
    verdict: str = "unchecked"       # "exact-zero" | "violated"
    first_violation: Optional[int] = None


@dataclass
class RigidityClaim:
    time: int
    cuts: int
    lower_bound: Fraction = Fraction(0)
    target: Fraction = Fraction(0)   # (1 - 1/cuts) * |f|^2
    satisfied: bool = False


@dataclass
class PolynomialClaim:
    time: int
    cuts: int
    poly: PolynomialSpec
    deviation: Fraction = Fraction(0)
    bound: Fraction = Fraction(0)
    satisfied: bool = False


@dataclass
class ConstructionCertificate:
    subject: str
    tracked: LevelFunction
    zero_intervals: list[ZeroIntervalClaim] = field(default_factory=list)
    rigidity_times: list[RigidityClaim] = field(default_factory=list)
    polynomial_claims: list[PolynomialClaim] = field(default_factory=list)
    min_distance_ledger: list[tuple[int, int]] = field(default_factory=list)
    skipped_budgets: list[tuple[int, int]] = field(default_factory=list)
    unverified_notes: list[str] = field(
        default_factory=lambda: [
            "simple spectrum of the factor and of its symmetric powers is not "
            "finitely checkable and is recorded here as unverified metadata"
        ]
    )

    @property
    def ok(self) -> bool:
        return (
            all(z.verdict == "exact-zero" for z in self.zero_intervals)
            and all(r.satisfied for r in self.rigidity_times)
            and all(p.satisfied for p in self.polynomial_claims)
        )

    def zero_set(self) -> list[tuple[int, int]]:
        return [z.checked for z in self.zero_intervals if z.verdict == "exact-zero"]


@dataclass
class PlanSummary:
    """The pair-level verdict of a plan, as ``plan.json`` holds it."""

    horizon: int
    n_zero_threshold: int
    sound: bool


def pair_summary(horizon: int, certs) -> PlanSummary:
    """The pair verdict of checked certificates: sound when every claim
    holds and ``n0`` lies within the horizon.  ``n0`` is one past the
    largest lag in ``[1, horizon]`` that no verified zero interval of
    ``certs`` covers (1 when they cover all of it)."""
    n = horizon
    # by descending start: once ``n`` drops below a start it stays below
    for lo, hi in sorted((iv for cert in certs for iv in cert.zero_set()), reverse=True):
        if lo <= n <= hi:
            n = lo - 1
    n0 = max(n, 0) + 1
    return PlanSummary(horizon, n0, all(cert.ok for cert in certs) and n0 <= horizon)


@dataclass
class PlanResult:
    spec_s: RankOneSpec
    spec_t: RankOneSpec
    cert_s: ConstructionCertificate
    cert_t: ConstructionCertificate
    f: LevelFunction
    g: LevelFunction
    summary: PlanSummary

    @property
    def n_zero_threshold(self) -> int:
        return self.summary.n_zero_threshold

    def pair_sound(self) -> bool:
        return self.summary.sound


def _plan_side(blocks, horizon: int, policy: GenericPolicy, subject: str):
    """Plan one factor: per block, a generic stage in the budget that
    precedes the forbidden interval when one fits, then the blocking stage
    itself."""
    stages: list[StageSpec] = []
    height = 1
    maxpos = 0  # exact largest occurrence position == largest pair difference
    rigidity: list[RigidityClaim] = []
    polyclaims: list[PolynomialClaim] = []
    ledger: list[tuple[int, int]] = []
    skipped: list[tuple[int, int]] = []
    claims: list[ZeroIntervalClaim] = []

    def apply(stage: StageSpec):
        nonlocal height, maxpos
        offs = stage.offsets(height)
        maxpos = offs[-1] + maxpos
        height = stage.cuts * height + sum(stage.spacers)

    for budget, forbidden in blocks:
        if budget is not None:
            try:
                stage = design_generic_stage(
                    height, budget, policy.generic_poly,
                    policy.generic_cuts, max_position=maxpos,
                )
            except PlanError:
                skipped.append(budget)
            else:
                time = height
                ledger.append((len(stages) + 1, height + min(stage.spacers)))
                if policy.generic_poly.is_rigidity():
                    rigidity.append(
                        RigidityClaim(time=time, cuts=policy.generic_cuts)
                    )
                else:
                    polyclaims.append(
                        PolynomialClaim(
                            time=time,
                            cuts=policy.generic_cuts,
                            poly=policy.generic_poly,
                        )
                    )
                apply(stage)
                stages.append(stage)
        lo, hi = forbidden
        if maxpos >= lo:
            raise PlanError(
                f"{subject}: existing differences reach {maxpos}, overlapping "
                f"forbidden interval [{lo}, {hi}] (construction ordering violated)"
            )
        stage = design_blocking_stage(height, forbidden, max_position=maxpos)
        ledger.append((len(stages) + 1, height + min(stage.spacers)))
        claims.append(
            ZeroIntervalClaim(
                interval=forbidden, checked=(lo, min(hi, horizon))
            )
        )
        apply(stage)
        stages.append(stage)

    # closing stage: grow the top gap past the horizon so every zero claim
    # can be certified with tolerance 0 from the finite spec
    if height - maxpos <= horizon:
        stage = StageSpec(cuts=BLOCKING_CUTS, spacers=(horizon + 1,) * BLOCKING_CUTS)
        ledger.append((len(stages) + 1, height + horizon + 1))
        apply(stage)
        stages.append(stage)

    spec = RankOneSpec(stages=tuple(stages))
    cert = ConstructionCertificate(
        subject=subject,
        tracked=LevelFunction.indicator(1),
        zero_intervals=claims,
        rigidity_times=rigidity,
        polynomial_claims=polyclaims,
        min_distance_ledger=ledger,
        skipped_budgets=skipped,
    )
    return spec, cert


def check_certificate(spec: RankOneSpec, cert: ConstructionCertificate) -> None:
    """Recompute every claim in place from one engine pass over the lags
    of all claims, which yields one bracket table per depth.

    A zero claim is a range query on the deepest table's count keys and
    envelope (:meth:`BracketTable.first_nonzero`), so its cost does not
    grow with the interval's length; rigidity claims read single-lag
    brackets off the same table.  A polynomial claim also reads the table
    of the tower its stage is applied to (:func:`verify_polynomial_limit`);
    one that no stage of the spec realises is recorded as unsatisfied.  A
    tracked function that lives on no tower of the spec is a ``ValueError``.
    """
    f = cert.tracked
    issues = f.issues(spec)
    if issues:
        raise ValueError(f"{cert.subject} tracked function: {issues[0]}")
    intervals = [z.checked for z in cert.zero_intervals]
    intervals += [(r.time, r.time) for r in cert.rigidity_times]
    claims = [(p.time, p.poly) for p in cert.polynomial_claims]
    table, at = _one_pass(spec, f, f, intervals, claims)
    nsq = f.norm_sq(spec)
    for z in cert.zero_intervals:
        z.first_violation = table.first_nonzero(*z.checked)
        z.verdict = "exact-zero" if z.first_violation is None else "violated"
    for r in cert.rigidity_times:
        r.target = (1 - Fraction(1, r.cuts)) * nsq
        r.lower_bound = table.bracket(r.time)[0]
        r.satisfied = r.lower_bound >= r.target
    for p in cert.polynomial_claims:
        try:
            res = _polynomial_verdict(spec, table, at.get(p.time), p.time, p.poly, f, f)
        except UnsupportedClaim:
            p.satisfied = False
            continue
        p.deviation = res.deviation
        p.bound = res.bound
        p.satisfied = res.satisfied


def plan_pair(
    schedule: IntervalSchedule, policy: Optional[GenericPolicy] = None
) -> PlanResult:
    """Build both factors from a schedule and certify every claim.

    The first factor blocks the ``I`` intervals with generic stages in the
    ``I~`` budgets; the second blocks the ``J`` intervals with generic
    stages in ``J~``.  The reported threshold is one past the largest lag
    in the horizon that neither factor certifies to zero (1 when the
    certified zero sets cover everything).
    """
    policy = policy or GenericPolicy()
    horizon = schedule.horizon
    s_blocks = []
    for k, b in enumerate(schedule.blocks):
        budget = schedule.blocks[k - 1].i_tilde if k > 0 else None
        s_blocks.append((budget, b.i))
    t_blocks = [(b.j_tilde, b.j) for b in schedule.blocks]

    spec_s, cert_s = _plan_side(s_blocks, horizon, policy, "S")
    spec_t, cert_t = _plan_side(t_blocks, horizon, policy, "T")
    for spec in (spec_s, spec_t):
        issues = validate_spec(spec)
        if issues:
            raise PlanError(f"planned spec is invalid: {issues[0]}")
    check_certificate(spec_s, cert_s)
    check_certificate(spec_t, cert_t)

    return PlanResult(
        spec_s=spec_s,
        spec_t=spec_t,
        cert_s=cert_s,
        cert_t=cert_t,
        f=cert_s.tracked,
        g=cert_t.tracked,
        summary=pair_summary(horizon, (cert_s, cert_t)),
    )


@dataclass
class PolyVerification:
    deviation: Fraction     # certified upper bound on the deviation
    bound: Fraction         # |f||g| (2/cuts + rounding mass); exact when f = g
    satisfied: bool


def _one_pass(spec: RankOneSpec, f, g, intervals, claims) -> tuple[BracketTable, dict]:
    """One engine pass over the lag ``intervals`` and those of the ``(time,
    poly)`` claims: the deepest table, and by height the tables they read."""
    intervals = [*intervals, *((t, t) for t, _ in claims),
                 *((-z, -z) for _, poly in claims for z, _ in poly.coefficients)]
    times = {t for t, _ in claims}
    at = {}
    for table in bracket_tables(spec, f, intervals, g):
        if table.prof.height in times:
            at[table.prof.height] = table
    return table, at


def verify_polynomial_limit(
    spec: RankOneSpec,
    time: int,
    poly: PolynomialSpec,
    f: LevelFunction,
    g: LevelFunction,
) -> PolyVerification:
    """Certify that the stage applied at height ``time`` copies the polynomial.

    The reference correlations are those of the construction *before* the
    stage (the stage itself is what installs the overlap pattern, so the
    finished transformation's small-lag correlations already include it),
    which is the profile of the tower of height ``time``.  One engine pass
    compares the full-depth value of ``(f, T^time g)`` off the deepest
    table with the polynomial average of the exact values at ``-z`` off
    that tower's table.
    """
    final, at = _one_pass(spec, f, g, [], [(time, poly)])
    return _polynomial_verdict(spec, final, at.get(time), time, poly, f, g)


def _polynomial_verdict(
    spec, final: BracketTable, pre: Optional[BracketTable], time, poly, f, g
) -> PolyVerification:
    if pre is None or pre is final:  # the deepest tower has no stage applied to it
        raise UnsupportedClaim(f"time {time} is not a stage height of the spec")
    stage = spec.stages[pre.prof.depth - 1]
    realized = Counter(stage.spacers)
    if any(realized[z] < m for z, m in apportion(poly, stage.cuts).items()):
        raise UnsupportedClaim(f"stage at height {time} does not realise the polynomial histogram")

    lhs_lo, lhs_hi = final.bracket(time)
    # pre-stage values are finite-tower quantities: take the exact pair count
    rhs = sum((a * pre.bracket(-z)[0] for z, a in poly.coefficients), Fraction(0))
    deviation = max(abs(lhs_lo - rhs), abs(lhs_hi - rhs))
    slack = Fraction(2, stage.cuts) + rounding_mass(poly, stage.cuts)
    nf2 = f.norm_sq(spec)
    ng2 = g.norm_sq(spec)
    # compare deviation <= sqrt(nf2 * ng2) * slack via squares (exact)
    satisfied = deviation * deviation <= nf2 * ng2 * slack * slack
    bound = nf2 * slack if f == g else (nf2 * ng2 * slack * slack)
    return PolyVerification(deviation=deviation, bound=bound, satisfied=satisfied)
