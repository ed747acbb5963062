"""Exact certificates for interleaved pairs of rank-one infinite-measure
transformations, their spectral summaries, and their Gaussian / Poisson
lifts."""

from .core import (
    LevelFunction,
    OccurrenceSet,
    RankOneSpec,
    StageSpec,
    ValidationReport,
    occurrence_set,
    point_map,
    validate_spec,
)
from .correlation import (
    BracketTable,
    CorrelationSequence,
    CoverageError,
    SummabilityReport,
    ToleranceNotReached,
    autocorrelation,
    bracket_table,
    corr_functional,
    correlation_sequence,
    product_correlation,
    summability_report,
)
from .schedule import (
    IntervalSchedule,
    ScheduleBlock,
    ScheduleReport,
    generate_schedule,
    validate_schedule,
)
from .pairplan import (
    ConstructionCertificate,
    GenericPolicy,
    PlanError,
    PlanResult,
    PolynomialSpec,
    check_certificate,
    design_blocking_stage,
    design_generic_stage,
    plan_pair,
    verify_polynomial_limit,
    zero_threshold,
)
from .spectral import (
    ChaosCoefficients,
    DensityEstimate,
    chaos_exp_coefficients,
    fejer_density,
    trig_polynomial_density,
)
from .suspension import (
    CovarianceEstimate,
    EscapeCapError,
    GaussianSample,
    PoissonPush,
    PSDError,
    SimulationConfig,
    gaussian_sample,
    level_values,
    linear_statistic_covariance,
    poisson_sample_and_push,
)
from .walsh import (
    Lemma3Truncation,
    WalshPolynomial,
    corr_tail_certificate,
    correlation_budget,
    inner_product,
    lemma3_truncate,
    shift_power,
)

__all__ = [name for name in dir() if not name.startswith("_")]
