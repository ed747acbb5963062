"""Exact certificates for interleaved pairs of rank-one infinite-measure
transformations, their spectral summaries, and their Gaussian / Poisson
lifts."""

# Each module and the names it exports, imported on first access (PEP 562),
# so that a command loads only the layers it runs: the certification
# commands never load numpy, and none loads a layer it does not call.
_LAZY = {
    "core": (
        "EscapeCapError",
        "LevelFunction",
        "PlanError",
        "RankOneSpec",
        "StageSpec",
        "ToleranceNotReached",
        "validate_spec",
    ),
    "correlation": (
        "CorrelationSequence",
        "CoverageError",
        "autocorrelation",
        "corr_functional",
        "correlation_sequence",
        "product_correlation",
        "summability_report",
    ),
    "schedule": (
        "generate_schedule",
        "validate_schedule",
    ),
    "pairplan": (
        "GenericPolicy",
        "PolynomialSpec",
        "check_certificate",
        "design_generic_stage",
        "pair_summary",
        "plan_pair",
        "verify_polynomial_limit",
    ),
    "walsh": (
        "WalshPolynomial",
        "corr_tail_certificate",
        "inner_product",
        "lemma3_truncate",
        "shift_power",
    ),
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
__all__ = [name for names in _LAZY.values() for name in names]


def __getattr__(name: str):
    for module, names in _LAZY.items():
        if name == module or name in names:
            from importlib import import_module

            found = import_module(f"{__name__}.{module}")
            return found if name == module else getattr(found, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
