import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rankpair import (
    GenericPolicy,
    LevelFunction,
    PlanError,
    PolynomialSpec,
    RankOneSpec,
    StageSpec,
    autocorrelation,
    check_certificate,
    correlation_sequence,
    design_generic_stage,
    generate_schedule,
    plan_pair,
    verify_polynomial_limit,
)
from rankpair import correlation, pairplan
from rankpair import serialize as ser
from rankpair.core import occurrence_set
from rankpair.correlation import BracketTable
from rankpair.pairplan import (
    ConstructionCertificate,
    UnsupportedClaim,
    ZeroIntervalClaim,
    apportion,
    design_blocking_stage,
    pair_summary,
    rounding_mass,
)

from test_core import stage_strategy

POLY_GOLDEN = Path(__file__).parent / "golden" / "poly"


class TestPolynomialSpec:
    def test_from_dict_and_mass(self):
        p = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 4)})
        assert p.mass == Fraction(3, 4)
        assert not p.is_rigidity()
        assert PolynomialSpec.delta(0).is_rigidity()

    def test_check_rejects_bad_mass(self):
        with pytest.raises(ValueError):
            PolynomialSpec.from_dict({0: Fraction(3, 2)})

    def test_a_spec_built_directly_is_checked(self):
        with pytest.raises(ValueError, match="powers must be non-negative"):
            PolynomialSpec(((-1, Fraction(1, 2)),))


class TestApportion:
    def test_largest_remainder(self):
        p = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert apportion(p, 3) == {0: 2, 1: 1}
        assert rounding_mass(p, 3) == Fraction(1, 3)

    def test_exact_split_has_no_rounding(self):
        p = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
        assert apportion(p, 64) == {0: 32, 1: 32}
        assert rounding_mass(p, 64) == 0

    def test_partial_mass_leaves_escape_columns(self):
        p = PolynomialSpec.from_dict({0: Fraction(1, 2)})
        counts = apportion(p, 4)
        assert sum(counts.values()) == 2


class TestBlockingStage:
    def test_new_differences_clear_forbidden_interval(self):
        base = RankOneSpec(stages=(StageSpec(2, (1, 1)),))
        h = base.heights()[-1]
        stage = design_blocking_stage(h, (1, 100), max_position=h - 1)
        spec = RankOneSpec(stages=base.stages + (stage,))
        occ = occurrence_set(spec, 1, spec.max_depth)
        diffs = {
            b - a for a in occ for b in occ if b > a
        }
        old = {b - a for a in (0, 2) for b in (0, 2) if b > a}
        assert all(d > 100 for d in diffs - old)

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            design_blocking_stage(4, (5, 3), max_position=3)


class TestGenericStage:
    def test_realizes_histogram(self):
        p = PolynomialSpec.from_dict({0: Fraction(1, 2), 2: Fraction(1, 2)})
        stage = design_generic_stage(10, (4, 200), p, 4, max_position=3)
        assert stage.spacers == (0, 0, 2, 2)

    def test_escape_columns_use_height(self):
        p = PolynomialSpec.from_dict({0: Fraction(1, 2)})
        stage = design_generic_stage(10, (7, 500), p, 4, max_position=3)
        assert stage.spacers == (0, 0, 10, 10)

    def test_budget_misfit_raises(self):
        p = PolynomialSpec.delta(0)
        with pytest.raises(PlanError):
            design_generic_stage(10, (7, 25), p, 4, max_position=3)

    def test_a_stage_past_its_budget_is_refused_before_it_is_built(self):
        """A million cuts at height 10 put the last copy near 10**7, far past
        the budget's end 25: the stage is refused before its spacer list is
        built."""
        tracemalloc.start()
        try:
            with pytest.raises(PlanError):
                design_generic_stage(10, (7, 25), PolynomialSpec.delta(0), 10 ** 6, max_position=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPlanPair:
    def test_plan_and_certify_small_horizon(self):
        result = plan_pair(generate_schedule(8, 500))
        assert result.pair_sound()
        assert result.n_zero_threshold <= 100
        assert result.cert_s.ok and result.cert_t.ok

    def test_zero_sets_jointly_cover(self):
        result = plan_pair(generate_schedule(8, 500))
        covered = set()
        for cert in (result.cert_s, result.cert_t):
            for lo, hi in cert.zero_set():
                covered.update(range(lo, hi + 1))
        assert covered >= set(range(result.n_zero_threshold, 501))

    def test_rigidity_claims_are_exact(self):
        result = plan_pair(generate_schedule(8, 2000))
        claims = result.cert_s.rigidity_times
        assert claims, "expected at least one rigidity stage to fit"
        for claim in claims:
            assert claim.lower_bound == claim.target

    def test_overlapping_forbidden_intervals_raise(self):
        from rankpair.schedule import IntervalSchedule, ScheduleBlock

        # the second forbidden interval starts below the differences the
        # first blocking stage already created
        sched = IntervalSchedule(
            blocks=(
                ScheduleBlock(i=(1, 10), j=(1, 30), i_tilde=(11, 11)),
                ScheduleBlock(i=(11, 30), j=(31, 60), j_tilde=None),
            ),
            horizon=30,
        )
        with pytest.raises(PlanError):
            plan_pair(sched)


class TestCheckCertificate:
    def test_detects_false_zero_claim(self):
        result = plan_pair(generate_schedule(8, 500))
        cert = result.cert_s
        rigid = cert.rigidity_times[0].time if cert.rigidity_times else 34
        cert.zero_intervals[0].interval = (1, rigid)
        cert.zero_intervals[0].checked = (1, rigid)
        check_certificate(result.spec_s, cert)
        assert cert.zero_intervals[0].verdict == "violated"
        assert cert.zero_intervals[0].first_violation is not None
        assert not cert.ok


    def test_billion_horizon(self):
        # zero claims are range queries on the count keys, so a horizon of
        # 10^9 costs what 10^4 does
        result = plan_pair(generate_schedule(8, 10 ** 9))
        assert result.pair_sound() and result.n_zero_threshold == 1
        for spec, cert in ((result.spec_s, result.cert_s), (result.spec_t, result.cert_t)):
            claimed = ser.certificate_to_dict(cert)
            fresh = ser.certificate_from_dict(claimed)
            check_certificate(spec, fresh)
            assert fresh.ok and ser.certificate_to_dict(fresh) == claimed

    def test_a_zero_claim_that_holds_costs_one_range_query(self, monkeypatch):
        """On S's plan at H = 10**300 (84 zero claims over 167 stages) each
        zero claim's walk reads one range query: its ``after`` lies past
        the claim, so the walk ends there, whatever the claim's length."""
        result = plan_pair(generate_schedule(8, 10 ** 300))
        spec, cert = result.spec_s, result.cert_s
        walks, nonzero, pairs = [], BracketTable.nonzero, correlation._Pass.pairs

        def watched_nonzero(table, ns):
            walks.append((ns, []))
            return nonzero(table, ns)

        def watched_pairs(engine, d, lo, hi):
            walks[-1][1].append((lo, hi))
            return pairs(engine, d, lo, hi)

        monkeypatch.setattr(BracketTable, "nonzero", watched_nonzero)
        monkeypatch.setattr(correlation._Pass, "pairs", watched_pairs)
        check_certificate(spec, cert)
        assert len(cert.zero_intervals) == 84 and cert.ok
        claims = [queries for ns, queries in walks if isinstance(ns, range)]
        assert len(claims) == 84 and all(len(queries) == 1 for queries in claims)


class TestZeroThreshold:
    @staticmethod
    def cert(*intervals, violated=()):
        return ConstructionCertificate("S", LevelFunction.indicator(1), [
            ZeroIntervalClaim(iv, iv, "violated" if iv in violated else "exact-zero")
            for iv in intervals
        ])

    def test_interval_union(self):
        # overlapping, nested and adjacent intervals, out of order
        a = self.cert((40, 60), (5, 10), (61, 70))
        b = self.cert((8, 45), (50, 55), (71, 200))
        assert pair_summary(100, [a, b]).n_zero_threshold == 5
        assert pair_summary(100, [a]).n_zero_threshold == 101
        assert pair_summary(30, [b]).n_zero_threshold == 8
        assert pair_summary(3, [a, b]).n_zero_threshold == 4

    def test_only_verified_intervals_count(self):
        a = self.cert((1, 50), (51, 100), violated=[(1, 50)])
        assert pair_summary(100, [a]).n_zero_threshold == 51
        assert pair_summary(100, [self.cert((1, 100))]).n_zero_threshold == 1

    @given(st.lists(st.tuples(st.integers(-5, 40), st.integers(-5, 40)), max_size=6),
           st.integers(1, 40))
    def test_matches_the_descending_walk(self, intervals, horizon):
        """Empty, non-positive, adjacent and overlapping intervals give the
        ``n0`` of a walk down from the horizon through the intervals."""
        n = horizon
        for lo, hi in sorted(intervals, reverse=True):
            if lo <= n <= hi:
                n = lo - 1
        assert pair_summary(horizon, [self.cert(*intervals)]).n_zero_threshold == max(n, 0) + 1


class TestPolynomialLimit:
    def build(self, cuts, poly):
        pre = StageSpec(2, (2, 2))
        h = 2 * 1 + 4
        generic = design_generic_stage(h, (3, 10 ** 6), poly, cuts,
                                       max_position=3)
        closing = StageSpec(2, (10 ** 4, 10 ** 4))
        return RankOneSpec(stages=(pre, generic, closing)), h

    def test_half_half_with_64_cuts(self):
        poly = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
        spec, time = self.build(64, poly)
        f = LevelFunction.indicator(1)
        res = verify_polynomial_limit(spec, time, poly, f, f)
        assert res.satisfied
        assert res.bound == f.norm_sq(spec) * Fraction(2, 64)

    def test_deviation_matches_direct_computation(self):
        poly = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
        spec, time = self.build(64, poly)
        f = LevelFunction.indicator(1)
        seq = correlation_sequence(
            spec, f, [0, 1, time], tolerance=Fraction(0)
        )
        lhs = seq.entries[time][0]
        rhs = Fraction(1, 2) * seq.entries[0][0] + Fraction(1, 2) * seq.entries[1][0]
        res = verify_polynomial_limit(spec, time, poly, f, f)
        assert abs(lhs - rhs) <= res.bound

    def test_unrealized_histogram_rejected(self):
        poly = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
        other = PolynomialSpec.from_dict({0: Fraction(1)})
        spec, time = self.build(64, poly)
        f = LevelFunction.indicator(1)
        with pytest.raises(ValueError):
            verify_polynomial_limit(spec, time, other, f, f)

    def test_claim_at_the_final_height_is_unsupported(self):
        # no stage is applied to the deepest tower
        poly = PolynomialSpec.from_dict({0: Fraction(1, 2), 1: Fraction(1, 2)})
        spec, _ = self.build(4, poly)
        f = LevelFunction.indicator(1)
        with pytest.raises(UnsupportedClaim):
            verify_polynomial_limit(spec, spec.heights()[-1], poly, f, f)


def truncated_deviation(spec, time, poly, f, g):
    """The deviation read with a second engine run on the spec cut just
    before the stage at ``time``, which is the tower the claim reads."""
    cut = RankOneSpec(stages=spec.stages[: spec.heights().index(time)],
                      base_height=spec.base_height)
    lo, hi = correlation_sequence(spec, f, [time], g=g).entries[time]
    pre = correlation_sequence(cut, f, [-z for z, _ in poly.coefficients], g=g)
    rhs = sum((a * pre.entries[-z][0] for z, a in poly.coefficients), Fraction(0))
    return max(abs(lo - rhs), abs(hi - rhs))


@st.composite
def polynomial_case(draw):
    """A spec whose generic stage realises a drawn polynomial at a drawn
    height, open stages before and after it, and two signed functions on
    towers no deeper than the claim's."""
    before = draw(st.lists(stage_strategy(), max_size=2))
    base = draw(st.integers(1, 3))
    heights = RankOneSpec(stages=tuple(before), base_height=base).heights()
    zs = draw(st.lists(st.integers(0, 4), unique=True, max_size=3))
    parts = [draw(st.integers(1, 4)) for _ in zs]
    total = max(sum(parts) + draw(st.integers(0, 3)), 1)
    poly = PolynomialSpec.from_dict({z: Fraction(k, total) for z, k in zip(zs, parts)})
    time = heights[-1]
    generic = design_generic_stage(time, (1, 10 ** 9), poly, draw(st.integers(2, 6)),
                                   max_position=time - 1)
    after = draw(st.lists(stage_strategy(), max_size=2))
    spec = RankOneSpec(stages=(*before, generic, *after), base_height=base)

    def function():
        stage = draw(st.integers(1, len(heights)))
        coeffs = draw(st.dictionaries(
            st.integers(0, heights[stage - 1] - 1),
            st.fractions(min_value=-2, max_value=2, max_denominator=4),
            min_size=1, max_size=3,
        ))
        return LevelFunction.from_dict(stage, coeffs)

    return spec, time, poly, function(), function()


class TestOnePass:
    """Every claim of a certificate is read off one engine pass."""

    @pytest.fixture
    def passes(self, monkeypatch):
        calls = []
        engine = pairplan.bracket_tables

        def counted(*args):
            calls.append(args)
            return engine(*args)

        monkeypatch.setattr(pairplan, "bracket_tables", counted)
        return calls

    @staticmethod
    def golden(side):
        spec = ser.spec_from_dict(ser.read_json(POLY_GOLDEN / f"spec_{side}.json"))
        cert = ser.certificate_from_dict(ser.read_json(POLY_GOLDEN / f"cert_{side}.json"))
        assert cert.polynomial_claims
        return spec, cert

    @pytest.mark.parametrize("side", "st")
    def test_check_certificate(self, passes, side):
        spec, cert = self.golden(side)
        claimed = ser.certificate_to_dict(cert)
        check_certificate(spec, cert)
        assert len(passes) == 1
        assert ser.certificate_to_dict(cert) == claimed

    @pytest.mark.parametrize("side", "st")
    def test_verify_polynomial_limit(self, passes, side):
        spec, cert = self.golden(side)
        for p in cert.polynomial_claims:
            passes.clear()
            res = verify_polynomial_limit(spec, p.time, p.poly, cert.tracked, cert.tracked)
            assert len(passes) == 1
            assert res == p and res.satisfied

    @given(polynomial_case())
    @settings(max_examples=100, deadline=None)
    def test_pre_stage_values_match_the_truncated_spec(self, case):
        spec, time, poly, f, g = case
        res = verify_polynomial_limit(spec, time, poly, f, g)
        assert res.deviation == truncated_deviation(spec, time, poly, f, g)
