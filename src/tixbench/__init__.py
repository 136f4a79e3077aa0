"""Zero-shot time-series imputation on a time-indexed feature basis, plus a
reproducible benchmark harness for missing-data scenarios."""

__version__ = "0.1.0"

from .core import FrequencySpec, Segment, TimeSeries, chrono_split, extract_segments, floored_std
from .features import FeatureSpec, handcrafted_features, random_fourier_basis, stack_covariates
from .imputers import (
    DEFAULT_QUANTILE_LEVELS,
    Imputation,
    impute_covariate_ridge,
    impute_linear,
    impute_locf,
    impute_seasonal_naive,
    impute_time_indexed,
    make_imputer,
)
from .masking import DEFAULT_SCENARIOS, InfeasibleScenario, Scenario, apply_scenario
from .metrics import ScoreRecord, aggregate, average_ranks, quantile_loss, wql, znorm_mae
from .regress import LinearModel, enforce_noncrossing, pinball_fit, predict, ridge_fit
from .synth import Component, SynthSpec, generate

__all__ = [
    "FrequencySpec",
    "Segment",
    "TimeSeries",
    "chrono_split",
    "extract_segments",
    "floored_std",
    "FeatureSpec",
    "handcrafted_features",
    "random_fourier_basis",
    "stack_covariates",
    "DEFAULT_QUANTILE_LEVELS",
    "Imputation",
    "impute_covariate_ridge",
    "impute_linear",
    "impute_locf",
    "impute_seasonal_naive",
    "impute_time_indexed",
    "make_imputer",
    "DEFAULT_SCENARIOS",
    "InfeasibleScenario",
    "Scenario",
    "apply_scenario",
    "ScoreRecord",
    "aggregate",
    "average_ranks",
    "quantile_loss",
    "wql",
    "znorm_mae",
    "LinearModel",
    "enforce_noncrossing",
    "pinball_fit",
    "predict",
    "ridge_fit",
    "Component",
    "SynthSpec",
    "generate",
]
