"""Marginal screening of right-censored survival outcomes.

Tests whether any of p predictors is linearly associated with a
right-censored (log) survival time, using inverse-probability-of-censoring
weighted slope estimates, their efficient one-step correction, and a
stabilized sequential variant whose test statistic admits a standard normal
calibration even for very large p.
"""

from .dataset import SurvivalDataset, ingest, read_csv
from .censoring import KaplanMeierFit, survival_at, synthetic_response
from .errors import DegeneracyError, InputError, SurvScreenError
from .onestep import (
    BonferroniResult,
    OneStepResult,
    bonferroni_test,
    conservative_variance,
    one_step,
)
from .stabilized import (
    MultiOrderingResult,
    StabilizedResult,
    multi_ordering_test,
    select_predictor,
    stabilized_estimate,
)
from .simulate import (
    MonteCarloReport,
    ScenarioSpec,
    calibrate_censoring_rate,
    generate_scenario,
    monte_carlo_rejection,
)

__version__ = "0.1.0"

__all__ = [
    "BonferroniResult",
    "DegeneracyError",
    "InputError",
    "KaplanMeierFit",
    "MonteCarloReport",
    "MultiOrderingResult",
    "OneStepResult",
    "ScenarioSpec",
    "StabilizedResult",
    "SurvScreenError",
    "SurvivalDataset",
    "bonferroni_test",
    "calibrate_censoring_rate",
    "conservative_variance",
    "generate_scenario",
    "ingest",
    "monte_carlo_rejection",
    "multi_ordering_test",
    "one_step",
    "read_csv",
    "select_predictor",
    "stabilized_estimate",
    "survival_at",
    "synthetic_response",
]
