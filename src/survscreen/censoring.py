"""Censoring-distribution estimation and weighted responses.

The censoring survival function G(t) = P(C >= t) is estimated by the
product-limit estimator with the roles of events and censorings swapped:
censored observations are the "events".  Evaluation is left-continuous,
G(t) = prod_{s < t} (1 - d(s)/Y(s)), so at equal times events precede
censorings and G(X) stays well-defined for an event tied with a censoring.

Cumulative-hazard increments are the counting-process ratios d(s)/Y(s)
(not -log of the survival path); the martingale integrals of the influence
function are defined directly through those increments.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import SurvivalDataset
from .errors import DegeneracyError, InputError, _instance

EPS_G = 1e-10


@dataclass(frozen=True)
class KaplanMeierFit:
    """Step-function censoring survival and its hazard increments.

    ``jump_times`` are the distinct censoring times; ``survival_after[m]`` is
    the value of G just after the m-th jump; ``hazard_increments[m]`` is
    d(s_m)/Y(s_m).
    """

    jump_times: np.ndarray
    survival_after: np.ndarray
    hazard_increments: np.ndarray

    def __post_init__(self):
        for arr in (self.jump_times, self.survival_after, self.hazard_increments):
            arr.flags.writeable = False


def fit_censoring_km(x: np.ndarray, delta: np.ndarray) -> KaplanMeierFit:
    """Product-limit fit of G from (x, delta) pairs."""
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta)
    n = len(x)
    if n == 0:
        raise InputError("cannot fit a censoring distribution on an empty sample")
    jump_times, counts = np.unique(x[delta == 0], return_counts=True)
    xs = np.sort(x)
    at_risk = n - np.searchsorted(xs, jump_times, side="left")
    hazard = counts / at_risk
    survival = np.cumprod(1.0 - hazard)
    return KaplanMeierFit(jump_times, survival, hazard)


def survival_at(km: KaplanMeierFit, t) -> np.ndarray:
    """Left-continuous evaluation: only jumps strictly before t count."""
    t = np.asarray(t, dtype=np.float64)
    idx = np.searchsorted(km.jump_times, t, side="left")
    padded = np.concatenate(([1.0], km.survival_after))
    return padded[idx]


def synthetic_response(data: SurvivalDataset, km: Optional[KaplanMeierFit] = None) -> np.ndarray:
    """Inverse-probability-weighted responses y_i = delta_i * x_i / G(x_i).

    ``km`` defaults to the censoring fit of the whole dataset.  Censored
    observations get 0.  Raises if an event's G(x) is below EPS_G, which
    only a ``km`` not fitted on ``data`` can cause: with the data's own fit,
    G(x-) >= 1/n at every event.
    """
    _instance("data", data, SurvivalDataset)
    if km is None:
        km = fit_censoring_km(data.x, data.delta)
    return _weighted_response(data.x, data.delta, survival_at(km, data.x))


def _weighted_response(x: np.ndarray, delta: np.ndarray, g: np.ndarray) -> np.ndarray:
    events = delta == 1
    if np.any(g[events] < EPS_G):
        bad = int(np.flatnonzero(events & (g < EPS_G))[0])
        raise DegeneracyError(
            f"censoring survival {g[bad]:.3g} below {EPS_G} at event time {x[bad]}; "
            "tau is likely too large for the observed censoring"
        )
    y = np.zeros(len(x))
    y[events] = x[events] / g[events]
    return y
