"""Influence functions and the one-step slope estimator for a block of predictors.

The target is the marginal slope cov(U, T) / var(U).  The plug-in estimate
regresses the model-predicted response on U; the one-step estimate adds the
empirical mean of the efficient influence function, which splits into an
inverse-weighting part and a censoring-martingale part:

    ipw_i  = (u_i - ubar) * (y_i - ebar) / V  -  c_ue * (u_i - ubar)^2 / V^2
    car_i  = (u_i - ubar) / V * integral of E(u_i, s) against dM_i(s)
    star_i = ipw_i - car_i

with ubar, V the sample mean/variance of U, ebar the sample mean of the
predicted responses, and c_ue their sample covariance with U.  All moments
use divisor n; the algebraic cancellations in the estimator are exact only
with matched divisors.

Two algebraically equivalent forms of the estimator are always computed and
cross-checked: (a) plug-in + mean influence, and (b) the simplified
weighted-response form  mean((U - ubar) Y) / V - mean(car).

Every function here works on an (m x b) column block of predictors: one
predictor is a block of one, and ``bonferroni_test`` walks the predictor
matrix in blocks of ``BLOCK_COLUMNS``.  Column means are taken over
Fortran-ordered arrays, so each column is summed in the same (pairwise)
order as a 1-D array and a column's results do not depend on its block.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._normal import ndtr, ndtri
from .censoring import KaplanMeierFit, fit_censoring_km, synthetic_response
from .dataset import SurvivalDataset
from .errors import DegeneracyError, SurvScreenError
from .residual_life import EPS_VAR, ResidualLifeModel, fit_residual_life_arrays

EPS_SIGMA = 1e-8
DUAL_FORM_TOL = 1e-8

# Predictor columns per block in every blocked loop (bonferroni_test, and the
# screen's selection and full-sample nuisances): at n=500 each n x b
# temporary is 1 MB, so a block and its per-step arrays stay in cache.
BLOCK_COLUMNS = 256

# The 95% normal quantile is used as the literal constant 1.96; other levels
# go through the exact quantile function.  ndtr and ndtri are ports of the
# Cephes code behind scipy's normal sf and ppf: the same bits, without
# loading scipy, which was over half of the package's import time.
Z_95 = 1.96


def z_value(alpha: float) -> float:
    if alpha == 0.05:
        return Z_95
    return ndtri(1.0 - alpha / 2.0)


def two_sided_p(z):
    return 2.0 * ndtr(-np.abs(z))


def _colmean(a: np.ndarray) -> np.ndarray:
    """Column means, each summed like a 1-D array whatever the block width."""
    return np.asfortranarray(a).mean(axis=0)


@dataclass(frozen=True)
class NuisanceBundle:
    """Fitted nuisances for a block of predictors over one declared sample.

    ``km`` is the censoring fit the synthetic responses and martingale terms
    are taken against; it may come from a larger sample than the regression
    moments.  The moments are arrays with one entry per block column.
    """

    km: KaplanMeierFit
    rl: ResidualLifeModel
    u_mean: np.ndarray
    u_var: np.ndarray
    e_mean: np.ndarray
    cov_u_e: np.ndarray


def make_bundle(U, x, delta, y, km: KaplanMeierFit) -> NuisanceBundle:
    """Fit the residual-life model and predictor moments of an (m x b) block."""
    U = np.asarray(U, dtype=np.float64)
    rl = fit_residual_life_arrays(x, delta, y, U)
    e_vals = rl.intercepts[0] + rl.slopes[0] * (U - rl.u_centers[0])
    u_mean = _colmean(U)
    u_var = _colmean(U * U) - u_mean * u_mean
    e_mean = _colmean(e_vals)
    cov_u_e = _colmean(U * e_vals) - u_mean * e_mean
    return NuisanceBundle(km=km, rl=rl, u_mean=u_mean, u_var=u_var, e_mean=e_mean, cov_u_e=cov_u_e)


def plugin_slope(bundle: NuisanceBundle) -> np.ndarray:
    return bundle.cov_u_e / bundle.u_var


def martingale_values(rl: ResidualLifeModel, km: KaplanMeierFit, U, x, delta) -> np.ndarray:
    """Integral of the residual-life prediction against dM, one value per row
    and block column.

    For row i this is E(u_i, x_i) if censored, minus the sum of
    E(u_i, s) * dLambda(s) over hazard jumps s <= x_i.
    """
    U = np.asarray(U, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta)
    jt = km.jump_times
    if len(jt) == 0:
        return np.zeros(U.shape)
    rows = rl.coefficient_rows(jt)
    hazard = km.hazard_increments[:, None]
    a_eff = rl.intercepts - rl.slopes * rl.u_centers
    zero = np.zeros((1, U.shape[1]))
    cum_a = np.concatenate((zero, np.cumsum(a_eff[rows] * hazard, axis=0)))
    cum_b = np.concatenate((zero, np.cumsum(rl.slopes[rows] * hazard, axis=0)))
    n_jumps = np.searchsorted(jt, x, side="right")
    jump_sum = cum_a[n_jumps] + cum_b[n_jumps] * U
    rx = rl.coefficient_rows(x)
    at_x = a_eff[rx] + rl.slopes[rx] * U
    return np.where(delta[:, None] == 0, at_x, 0.0) - jump_sum


def influence_values(bundle: NuisanceBundle, U, x, delta, y):
    """(ipw, car) influence arrays for the given evaluation rows of the block."""
    U = np.asarray(U, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)[:, None]
    cu = U - bundle.u_mean
    v = bundle.u_var
    ipw = cu * (y - bundle.e_mean) / v - bundle.cov_u_e * cu * cu / (v * v)
    car = cu / v * martingale_values(bundle.rl, bundle.km, U, x, delta)
    return ipw, car


def _raise_first(*checks):
    """Raise what a per-predictor loop would raise first: the earliest column
    failing any check, with the first check it fails.  A check is a pair
    (mask over block columns, function building the error for column c)."""
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if failing.any():
        c = int(np.argmax(failing))
        raise next(error(c) for bad, error in checks if bad[c])


def _variance_floor(u_var, ks):
    return u_var < EPS_VAR, lambda c: DegeneracyError(
        f"predictor {ks[c]} has sample variance {u_var[c]:.3g} below {EPS_VAR}"
    )


def influence_block(U, x, delta, y, km: KaplanMeierFit, fit_rows=None):
    """Nuisances of an (m x b) block fitted on its rows :fit_rows (default:
    all), and (ipw, car) at every row.  Returns (bundle, ipw, car); nothing
    is checked, so the caller raises the variance floor where its error
    order requires."""
    fit = slice(fit_rows)
    bundle = make_bundle(U[fit], x[fit], delta[fit], y[fit], km)
    ipw, car = influence_values(bundle, U, x, delta, y)
    return bundle, ipw, car


def normal_interval(estimate, sigma, m: int, alpha: float):
    """(ci_low, ci_high, statistic, p) of an estimate whose influence values
    over m terms have dispersion sigma; scalars or arrays."""
    root = math.sqrt(m)
    half = z_value(alpha) * sigma / root
    statistic = root * estimate / sigma
    return estimate - half, estimate + half, statistic, two_sided_p(statistic)


def bonferroni(p_values, alpha: float):
    """(index, min_p, adjusted_p, reject) over len(p_values) tests: the
    smallest p (the lowest index on a tie), min(1, tests * p), p < alpha / tests."""
    index = int(np.argmin(p_values))
    min_p = float(p_values[index])
    tests = len(p_values)
    return index, min_p, min(1.0, tests * min_p), bool(min_p < alpha / tests)


class _OneStepBlock(NamedTuple):
    psi: np.ndarray
    s_onestep: np.ndarray
    if_values: np.ndarray
    sigma: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    statistic: np.ndarray
    p_value: np.ndarray


def _one_step_block(U, x, delta, y, km: KaplanMeierFit, ks, alpha: float) -> _OneStepBlock:
    """One-step inference for every column of an (m x b) block.

    Both forms of the estimator are computed and must agree; the simplified
    form is returned.  A failing column raises the error that testing the
    block's predictors one at a time, in order, would raise.
    """
    y = np.asarray(y, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):  # floored columns raise below
        bundle, ipw, car = influence_block(U, x, delta, y, km)
        if_values = ipw - car
        psi = plugin_slope(bundle)
        form_a = psi + _colmean(if_values)
        cu = U - bundle.u_mean
        form_b = _colmean(cu * y[:, None]) / bundle.u_var - _colmean(car)
        gap = np.abs(form_a - form_b)
        sigma = np.sqrt(_colmean(if_values * if_values))
    _raise_first(
        _variance_floor(bundle.u_var, ks),
        (gap > DUAL_FORM_TOL, lambda c: SurvScreenError(
            f"one-step forms disagree by {gap[c]:.3g} for predictor {ks[c]}")),
        (sigma < EPS_SIGMA, lambda c: DegeneracyError(
            f"influence second moment below floor for predictor {ks[c]}")),
    )
    interval = normal_interval(form_b, sigma, len(x), alpha)
    return _OneStepBlock(psi, form_b, if_values, sigma, *interval)


@dataclass(frozen=True)
class OneStepResult:
    """One-step slope inference for a single predictor; ``statistic`` is
    sqrt(n_used) * s_onestep / sigma_hat."""

    k: int
    psi_plugin: float
    s_onestep: float
    if_values: np.ndarray
    sigma_hat: float
    ci_low: float
    ci_high: float
    statistic: float
    p_value: float
    n_used: int
    alpha: float

    def __post_init__(self):
        self.if_values.flags.writeable = False


def one_step(data: SurvivalDataset, k: int, alpha: float = 0.05) -> OneStepResult:
    """One-step estimate for predictor k over the whole sample."""
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    block = _one_step_block(data.predictors[:, [k]], data.x, data.delta, y, km, (k,), alpha)
    return OneStepResult(
        k=k, psi_plugin=float(block.psi[0]), s_onestep=float(block.s_onestep[0]),
        if_values=block.if_values[:, 0], sigma_hat=float(block.sigma[0]),
        ci_low=float(block.ci_low[0]), ci_high=float(block.ci_high[0]),
        statistic=float(block.statistic[0]), p_value=float(block.p_value[0]),
        n_used=data.n, alpha=alpha,
    )


@dataclass(frozen=True)
class BonferroniResult:
    """Marginal one-step tests over all predictors with Bonferroni control.

    ``best`` is the full result for the selected (smallest-p) predictor.
    """

    p_values: np.ndarray
    statistics: np.ndarray
    selected: int
    best: OneStepResult
    min_p: float
    adjusted_p: float
    alpha: float
    reject: bool

    def __post_init__(self):
        self.p_values.flags.writeable = False
        self.statistics.flags.writeable = False


def bonferroni_test(data: SurvivalDataset, alpha: float = 0.05) -> BonferroniResult:
    """Test every predictor marginally; reject if min p < alpha / p."""
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    p_values = np.empty(data.p)
    statistics = np.empty(data.p)
    for start in range(0, data.p, BLOCK_COLUMNS):
        cols = range(start, min(start + BLOCK_COLUMNS, data.p))
        block = _one_step_block(
            data.predictors[:, cols.start:cols.stop], data.x, data.delta, y, km, cols, alpha
        )
        p_values[cols.start:cols.stop] = block.p_value
        statistics[cols.start:cols.stop] = block.statistic
    selected, min_p, adjusted_p, reject = bonferroni(p_values, alpha)
    return BonferroniResult(
        p_values=p_values, statistics=statistics, selected=selected,
        best=one_step(data, selected, alpha=alpha),
        min_p=min_p, adjusted_p=adjusted_p, alpha=alpha, reject=reject,
    )


def conservative_variance(data: SurvivalDataset, k: int, m_bound: Optional[float] = None) -> float:
    """Upper bound on the influence variance over the unknown covariance m
    between U and the limiting predicted response, for |m| <= m_bound.

    The correction term (c_ue - m) / V^2 * ((u - ubar)^2 - V) is added to the
    influence values and the sample second moment taken.  That moment is a
    convex quadratic in m, so its maximum over [-m_bound, m_bound] is the
    larger of its values at the two ends.  Default half-width is 4 standard
    deviations of the predicted responses.
    """
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    U = data.predictors[:, [k]]
    with np.errstate(divide="ignore", invalid="ignore"):  # a floored column raises below
        bundle, ipw, car = influence_block(U, data.x, data.delta, y, km)
    _raise_first(_variance_floor(bundle.u_var, (k,)))
    star = (ipw - car)[:, 0]
    if m_bound is None:
        rl = bundle.rl
        e_vals = rl.intercepts[0] + rl.slopes[0] * (U - rl.u_centers[0])
        m_bound = 4.0 * float(e_vals[:, 0].std())
    if m_bound <= 0.0:
        raise SurvScreenError(f"m_bound must be positive, got {m_bound}")
    cu = U[:, 0] - bundle.u_mean[0]
    v = bundle.u_var[0]
    base = (cu * cu - v) / (v * v)
    ends = (star + (bundle.cov_u_e[0] - m) * base for m in (-m_bound, m_bound))
    return max(float((vals * vals).mean()) for vals in ends)
