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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .core import LevelFunction, RankOneSpec, StageSpec, validate_spec
from .correlation import bracket_table, correlation_sequence
from .schedule import IntervalSchedule


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
    cuts: int = 2,
    max_position: Optional[int] = None,
) -> StageSpec:
    """A stage placing every new pair difference strictly past ``forbidden``.

    The smallest new difference is the inter-copy gap minus the largest
    existing occurrence position, so the spacer budgets for ``max_position``
    (worst case assumed when not given).  All columns (including the last)
    receive the same spacer, so the gap between the topmost occurrence and
    the tower top also grows by it -- that gap is what lets zero claims be
    certified with tolerance 0.
    """
    lo, hi = forbidden
    if cuts < 2:
        raise ValueError("blocking stage needs at least 2 cuts")
    if lo < 1 or hi < lo:
        raise ValueError(f"bad forbidden interval [{lo}, {hi}]")
    if current_height < 1:
        raise ValueError("current_height must be positive")
    if max_position is None:
        max_position = current_height - 1
    s = max(hi - current_height + max_position + 1, 0)
    return StageSpec(cuts=cuts, spacers=(s,) * cuts)


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
    blocking_cuts: int = 2
    generic_cuts: int = 4
    generic_poly: PolynomialSpec = PolynomialSpec.delta(0)
    max_generic_per_block: int = 1

    def __post_init__(self):
        if min(self.blocking_cuts, self.generic_cuts) < 2 or self.max_generic_per_block < 0:
            raise ValueError(
                "policy needs blocking and generic cuts >= 2 and "
                f"max_generic_per_block >= 0, got {self.blocking_cuts}, "
                f"{self.generic_cuts} and {self.max_generic_per_block}"
            )


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


@dataclass
class PlanResult:
    spec_s: RankOneSpec
    spec_t: RankOneSpec
    cert_s: ConstructionCertificate
    cert_t: ConstructionCertificate
    f: LevelFunction
    g: LevelFunction
    horizon: int
    n_zero_threshold: int = 1

    def pair_sound(self) -> bool:
        return self.cert_s.ok and self.cert_t.ok and self.n_zero_threshold <= self.horizon

    def summary(self) -> PlanSummary:
        return PlanSummary(self.horizon, self.n_zero_threshold, self.pair_sound())


def _plan_side(blocks, horizon: int, policy: GenericPolicy, subject: str):
    """Plan one factor: per block, optional generic stages in the budget that
    precedes the forbidden interval, then the blocking stage itself."""
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
            for _ in range(policy.max_generic_per_block):
                try:
                    stage = design_generic_stage(
                        height, budget, policy.generic_poly,
                        policy.generic_cuts, max_position=maxpos,
                    )
                except PlanError:
                    skipped.append(budget)
                    break
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
        stage = design_blocking_stage(
            height, forbidden, policy.blocking_cuts, max_position=maxpos
        )
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
        stage = StageSpec(
            cuts=policy.blocking_cuts,
            spacers=(horizon + 1,) * policy.blocking_cuts,
        )
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
    """Recompute every claim in place from one engine pass.

    A zero claim is a range query on the deepest profile's count keys and
    envelope (:meth:`BracketTable.first_nonzero`), so its cost does not
    grow with the interval's length; rigidity claims read single-lag
    brackets off the same profile.  A polynomial claim that no stage of the
    spec realises is recorded as unsatisfied.
    """
    f = cert.tracked
    intervals = [z.checked for z in cert.zero_intervals]
    intervals += [(r.time, r.time) for r in cert.rigidity_times]
    table = bracket_table(spec, f, intervals)
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
            res = verify_polynomial_limit(spec, p.time, p.poly, f, f)
        except UnsupportedClaim:
            p.satisfied = False
            continue
        p.deviation = res.deviation
        p.bound = res.bound
        p.satisfied = res.satisfied


def zero_threshold(horizon: int, certs) -> int:
    """One past the largest lag in ``[1, horizon]`` that no verified zero
    interval of ``certs`` covers (1 when they cover all of it)."""
    n = horizon
    # by descending start: once ``n`` drops below a start it stays below
    for lo, hi in sorted((iv for cert in certs for iv in cert.zero_set()), reverse=True):
        if lo <= n <= hi:
            n = lo - 1
    return max(n, 0) + 1


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
        issues = validate_spec(spec).issues
        if issues:
            raise PlanError(f"planned spec is invalid: {issues[0]}")
    check_certificate(spec_s, cert_s)
    check_certificate(spec_t, cert_t)

    n0 = zero_threshold(horizon, (cert_s, cert_t))
    return PlanResult(
        spec_s=spec_s,
        spec_t=spec_t,
        cert_s=cert_s,
        cert_t=cert_t,
        f=cert_s.tracked,
        g=cert_t.tracked,
        horizon=horizon,
        n_zero_threshold=n0,
    )


@dataclass
class PolyVerification:
    deviation: Fraction     # certified upper bound on the deviation
    bound: Fraction         # |f||g| (2/cuts + rounding mass); exact when f = g
    satisfied: bool


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
    finished transformation's small-lag correlations already include it);
    the full-depth value of ``(f, T^time g)`` is then compared against the
    polynomial average of those pre-stage correlations.
    """
    stage_idx = None
    heights = spec.heights()
    for i, st in enumerate(spec.stages):
        if heights[i] == time:
            stage_idx = i
            break
    if stage_idx is None:
        raise UnsupportedClaim(f"time {time} is not a stage height of the spec")
    stage = spec.stages[stage_idx]
    counts = apportion(poly, stage.cuts)
    realized = {}
    for s in stage.spacers:
        realized[s] = realized.get(s, 0) + 1
    for z, m in counts.items():
        if realized.get(z, 0) < m:
            raise UnsupportedClaim(
                f"stage at height {time} does not realise the polynomial histogram"
            )

    pre_spec = RankOneSpec(stages=spec.stages[:stage_idx], base_height=spec.base_height)
    lhs_lo, lhs_hi = correlation_sequence(spec, f, [time], g=g).entries[time]
    # pre-stage values are finite-tower quantities: take the exact pair count
    zs = [z for z, _ in poly.coefficients]
    pre = correlation_sequence(pre_spec, f, [-z for z in zs], g=g)
    rhs = sum((a * pre.entries[-z][0] for z, a in poly.coefficients), Fraction(0))
    deviation = max(abs(lhs_lo - rhs), abs(lhs_hi - rhs))
    slack = Fraction(2, stage.cuts) + rounding_mass(poly, stage.cuts)
    nf2 = f.norm_sq(spec)
    ng2 = g.norm_sq(spec)
    # compare deviation <= sqrt(nf2 * ng2) * slack via squares (exact)
    satisfied = deviation * deviation <= nf2 * ng2 * slack * slack
    bound = nf2 * slack if f == g else (nf2 * ng2 * slack * slack)
    return PolyVerification(deviation=deviation, bound=bound, satisfied=satisfied)
