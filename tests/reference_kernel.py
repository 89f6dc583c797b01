"""A frozen copy of the one-step block kernel as it was before the kernel ran
in one memory layout over a shared per-sample frame.

The package's kernel must return these bits: every p-value, statistic and
influence value, and every error with its type, text and order.  This copy
is the reference of that gate and is not changed with the package.  Its
only imports from the package are the normal tail function and the error
types and floors, none of which the rewrite touched.
"""

import math

import numpy as np

from survscreen._normal import ndtr
from survscreen.errors import DegeneracyError, SurvScreenError

EPS_VAR = 1e-8
EPS_SIGMA = 1e-8
DUAL_FORM_TOL = 1e-8


def _colmean(a):
    return np.asfortranarray(a).mean(axis=0)


def fit_residual_life(x, delta, y, U):
    """(knots, intercepts, slopes, u_centers) of an (m x b) block."""
    n = len(x)
    order = np.argsort(x, kind="stable")
    xs, ys, us = x[order], y[order], U[order]

    def suffix(v):
        return np.concatenate((np.cumsum(v[::-1], axis=0)[::-1], np.zeros((1,) + v.shape[1:])))

    s_y, s_u, s_uu, s_uy = suffix(ys), suffix(us), suffix(us * us), suffix(us * ys[:, None])
    knots = np.unique(x[delta == 0])
    starts = np.concatenate(([0], np.searchsorted(xs, knots, side="left")))
    a = (s_y[starts] / n)[:, None]
    ubar = s_u[starts] / n
    var = s_uu[starts] / n - ubar * ubar
    cov = s_uy[starts] / n - ubar * a
    floored = var < EPS_VAR
    slope = np.where(floored, 0.0, cov / np.where(floored, 1.0, var))
    return knots, a, slope, ubar


def martingale(knots, a, slope, ubar, km, U, x, delta):
    jt = km.jump_times
    rows = np.searchsorted(knots, jt, side="right")
    hazard = km.hazard_increments[:, None]
    a_eff = a - slope * ubar
    zero = np.zeros((1, U.shape[1]))
    cum_a = np.concatenate((zero, np.cumsum(a_eff[rows] * hazard, axis=0)))
    cum_b = np.concatenate((zero, np.cumsum(slope[rows] * hazard, axis=0)))
    n_jumps = np.searchsorted(jt, x, side="right")
    jump_sum = cum_a[n_jumps] + cum_b[n_jumps] * U
    rx = np.searchsorted(knots, x, side="right")
    at_x = a_eff[rx] + slope[rx] * U
    return np.where(delta[:, None] == 0, at_x, 0.0) - jump_sum


def one_step_block(U, x, delta, y, km, ks):
    """(psi, s_onestep, if_values, sigma, ci_low, ci_high, statistic, p) of
    every column of a block, raising what the kernel raised."""
    with np.errstate(divide="ignore", invalid="ignore"):
        knots, a, slope, ubar = fit_residual_life(x, delta, y, U)
        e_vals = a[0] + slope[0] * (U - ubar[0])
        u_mean, e_mean = _colmean(U), _colmean(e_vals)
        u_var = _colmean(U * U) - u_mean * u_mean
        cov_u_e = _colmean(U * e_vals) - u_mean * e_mean
        cu = U - u_mean
        yc = y[:, None]
        ipw = cu * (yc - e_mean) / u_var - cov_u_e * cu * cu / (u_var * u_var)
        car = cu / u_var * martingale(knots, a, slope, ubar, km, U, x, delta)
        if_values = ipw - car
        psi = cov_u_e / u_var
        form_a = psi + _colmean(if_values)
        cu = U - u_mean
        form_b = _colmean(cu * yc) / u_var - _colmean(car)
        gap = np.abs(form_a - form_b)
        sigma = np.sqrt(_colmean(if_values * if_values))
    checks = (
        (u_var < EPS_VAR, lambda c: DegeneracyError(
            f"predictor {ks[c]} has sample variance {u_var[c]:.3g} below {EPS_VAR}")),
        (gap > DUAL_FORM_TOL, lambda c: SurvScreenError(
            f"one-step forms disagree by {gap[c]:.3g} for predictor {ks[c]}")),
        (sigma < EPS_SIGMA, lambda c: DegeneracyError(
            f"influence second moment below floor for predictor {ks[c]}")),
    )
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if failing.any():
        c = int(np.argmax(failing))
        raise next(error(c) for bad, error in checks if bad[c])
    root = math.sqrt(len(x))
    half = 1.96 * sigma / root  # alpha = 0.05
    statistic = root * form_b / sigma
    p = 2.0 * ndtr(-np.abs(statistic))
    return psi, form_b, if_values, sigma, form_b - half, form_b + half, statistic, p


def bonferroni_arrays(data, km, y, width):
    """(p_values, statistics) of every predictor, in blocks of ``width``."""
    p_values, statistics = np.empty(data.p), np.empty(data.p)
    for start in range(0, data.p, width):
        cols = range(start, min(start + width, data.p))
        block = one_step_block(data.predictors[:, cols.start:cols.stop], data.x, data.delta,
                               y, km, cols)
        p_values[cols.start:cols.stop] = block[7]
        statistics[cols.start:cols.stop] = block[6]
    return p_values, statistics
