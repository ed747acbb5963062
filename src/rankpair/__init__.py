"""Exact certificates for interleaved pairs of rank-one infinite-measure
transformations, their spectral summaries, and their Gaussian / Poisson
lifts."""

from .core import (
    EscapeCapError,
    LevelFunction,
    RankOneSpec,
    StageSpec,
    validate_spec,
)
from .correlation import (
    CorrelationSequence,
    CoverageError,
    ToleranceNotReached,
    autocorrelation,
    corr_functional,
    correlation_sequence,
    product_correlation,
    summability_report,
)
from .schedule import (
    generate_schedule,
    validate_schedule,
)
from .pairplan import (
    GenericPolicy,
    PlanError,
    PolynomialSpec,
    check_certificate,
    design_generic_stage,
    plan_pair,
    verify_polynomial_limit,
)
from .walsh import (
    WalshPolynomial,
    corr_tail_certificate,
    inner_product,
    lemma3_truncate,
    shift_power,
)

# numpy-backed modules and their names, imported on first access (PEP 562),
# so that importing the certification layers does not load numpy
_LAZY = {
    "spectral": (
        "chaos_exp_coefficients",
        "fejer_density",
        "trig_polynomial_density",
    ),
    "suspension": (
        "MemoryCapError",
        "PSDError",
        "SimulationConfig",
        "gaussian_sample",
        "linear_statistic_covariance",
        "poisson_sample_and_push",
    ),
}

# the names a command or an acceptance test uses, and the errors the CLI
# maps to exit codes; the submodules themselves stay out
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, type(walsh))]
__all__ += [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module

            found = import_module(f"{__name__}.{module}")
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
