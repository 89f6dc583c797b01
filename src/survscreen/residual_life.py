"""At-risk linear regression of the weighted response on a block of predictors.

For a time s and predictor column u, the conditional residual-life value at
u is the linear prediction a(s) + b(s) * (u - ubar(s)) where all moments are
indicator-weighted over the *whole* fitting sample (zeros included, divisor
n):

    a(s)    = mean(y * 1(x >= s))
    b(s)    = cov(u * 1(x >= s), y * 1(x >= s)) / var(u * 1(x >= s))
    ubar(s) = mean(u * 1(x >= s))

Coefficients are cached at s = -inf and at each distinct censoring time of
the fitting sample; the martingale integrals that consume the model only
probe those times, so the cache is exact there.  When the indicator-weighted
predictor variance drops below the floor, the slope is set to 0 and the
intercept-only fit is returned.

One fit serves an (m x b) column block: the sort by x and the knots are
shared, and each column costs three suffix cumulative sums.
"""

from dataclasses import dataclass

import numpy as np

EPS_VAR = 1e-8


@dataclass(frozen=True)
class ResidualLifeModel:
    """Piecewise-constant (in s) linear coefficients; row 0 is s = -inf.

    ``intercepts`` is a (K+1, 1) column shared by every predictor of the
    block; ``slopes`` and ``u_centers`` are (K+1, b), one column each.
    """

    knot_times: np.ndarray
    intercepts: np.ndarray
    slopes: np.ndarray
    u_centers: np.ndarray

    def __post_init__(self):
        for arr in (self.knot_times, self.intercepts, self.slopes, self.u_centers):
            arr.flags.writeable = False

    def coefficient_rows(self, s) -> np.ndarray:
        """Cache row for each s: 0 for s = -inf, else largest cached time <= s."""
        return np.searchsorted(self.knot_times, np.asarray(s, dtype=np.float64), side="right")


def fit_residual_life_arrays(
    x: np.ndarray, delta: np.ndarray, y: np.ndarray, U: np.ndarray
) -> ResidualLifeModel:
    """Fit an (m x b) predictor block; knots are the sample's distinct censoring times."""
    x = np.asarray(x, dtype=np.float64)
    delta = np.asarray(delta)
    y = np.asarray(y, dtype=np.float64)
    U = np.asarray(U, dtype=np.float64)
    n = len(x)

    order = np.argsort(x, kind="stable")
    xs = x[order]
    ys = y[order]
    us = U[order]

    def suffix(v):
        # suffix[i] = sum of v[i:] down axis 0; one trailing 0 row so start == n is valid
        return np.concatenate((np.cumsum(v[::-1], axis=0)[::-1], np.zeros((1,) + v.shape[1:])))

    s_y = suffix(ys)
    s_u = suffix(us)
    s_uu = suffix(us * us)
    s_uy = suffix(us * ys[:, None])

    knots = np.unique(x[delta == 0])
    starts = np.concatenate(([0], np.searchsorted(xs, knots, side="left")))

    a = (s_y[starts] / n)[:, None]
    ubar = s_u[starts] / n
    var = s_uu[starts] / n - ubar * ubar
    cov = s_uy[starts] / n - ubar * a
    floored = var < EPS_VAR
    slope = np.where(floored, 0.0, cov / np.where(floored, 1.0, var))

    return ResidualLifeModel(knots, a, slope, ubar)
