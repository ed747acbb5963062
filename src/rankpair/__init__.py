"""Exact certificates for interleaved pairs of rank-one infinite-measure
transformations, their spectral summaries, and their Gaussian / Poisson
lifts."""

from .core import (
    EscapeCapError,
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
    bracket_tables,
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
from .walsh import (
    Lemma3Truncation,
    WalshPolynomial,
    corr_tail_certificate,
    correlation_budget,
    inner_product,
    lemma3_truncate,
    shift_power,
)

# numpy-backed modules and their names, imported on first access (PEP 562),
# so that importing the certification layers does not load numpy
_LAZY = {
    "spectral": (
        "ChaosCoefficients",
        "DensityEstimate",
        "chaos_exp_coefficients",
        "fejer_density",
        "trig_polynomial_density",
    ),
    "suspension": (
        "CovarianceEstimate",
        "GaussianSample",
        "PoissonPush",
        "PSDError",
        "SimulationConfig",
        "gaussian_sample",
        "level_values",
        "linear_statistic_covariance",
        "poisson_sample_and_push",
    ),
}

__all__ = [name for name in dir() if not name.startswith("_")]
__all__ += [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module

            found = import_module(f"{__name__}.{module}")
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
