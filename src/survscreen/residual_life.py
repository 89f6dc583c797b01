"""At-risk linear regression of the weighted response on a block of predictors.

For a time s and predictor column u, the conditional residual-life value at
u is the linear prediction a(s) + b(s) * (u - ubar(s)) where all moments are
indicator-weighted over the *whole* fitting sample (zeros included, divisor
n):

    a(s)    = mean(y * 1(x >= s))
    b(s)    = cov(u * 1(x >= s), y * 1(x >= s)) / var(u * 1(x >= s))
    ubar(s) = mean(u * 1(x >= s))

Coefficients are computed at s = -inf (row 0) and at each distinct censoring
time of the fitting sample (the knots); the coefficients at any s are those
of the last knot <= s.  The martingale integrals that consume them
(``onestep._Martingale``) only probe those times, so they are exact there.
When the indicator-weighted predictor variance drops below the floor, the
slope is set to 0 and the intercept-only fit is returned.

``AtRiskFit`` is the one entry point.  It fits the blocks of one sample: the
sort by x, the ``knots``, their first at-risk rows and the ``intercepts``
are computed once, and each ``fit`` of a block costs three at-risk sums per
column, read only at the knots.
"""

import numpy as np

EPS_VAR = 1e-8

# Blocks at least this wide get their at-risk sums from one sweep over rows;
# narrower ones from cumsum.  Both add the same numbers in the same order, so
# the rule changes speed only.  The sweep pays about a microsecond of numpy
# call overhead per row, and cumsum about 4 ns per element; timed fits at
# n = 100, 500 and 2000 break even between 32 and 64 columns (CHANGES.md).
SWEEP_MIN_COLUMNS = 64


def suffix_sweep(rows: np.ndarray) -> np.ndarray:
    """Turn each row of the C-order (n x w) ``rows`` into the sum of it and
    every row below it, in place, and return ``rows``.

    The rows are added one at a time from the end, so numpy adds across a
    row's columns together; cumsum along axis 0 adds one element at a time.
    The order of the additions is cumsum's over the reversed rows, so the
    sums are bitwise the reversed cumsum.  The last row is left as it is, as
    cumsum's first term is, so a -0.0 there stays -0.0.
    """
    add = np.add
    below = rows[-1]
    for row in rows[-2::-1]:
        add(row, below, out=row)
        below = row
    return rows


class AtRiskFit:
    """Residual-life fits of (n x b) predictor blocks on one sample, for
    blocks of at most ``width`` columns.

    The frame (the stable sort of x, the knots, their first rows at risk
    ``starts`` and the intercepts) is built once.  ``fit`` returns the
    (K+1, b) slopes and u_centers in Fortran order, in scratch that the next
    call overwrites.
    """

    def __init__(self, x, delta, y, width: int):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        n = len(x)
        self.order = np.argsort(x, kind="stable")
        xs = x[self.order]
        self.ys = y[self.order][:, None]
        censored = xs[np.asarray(delta)[self.order] == 0]
        first = np.ones(len(censored), dtype=bool)  # np.unique, on times already sorted
        np.not_equal(censored[1:], censored[:-1], out=first[1:])
        self.knots = censored[first]
        self.starts = np.concatenate(([0], np.searchsorted(xs, self.knots, side="left")))
        s_y = np.concatenate((np.cumsum(self.ys[::-1, 0])[::-1], [0.0]))
        self.intercepts = (s_y[self.starts] / n)[:, None]
        # the sorted rows [u, u * u, u * y] of a block, and a row of zeros
        # below them that a start at n reads
        self._rows = np.zeros((n + 1, 3 * width))
        self._slopes = np.empty((len(self.starts), width), order="F")
        self._centers = np.empty((len(self.starts), width), order="F")

    def fit(self, U: np.ndarray):
        """(slopes, u_centers) of an (n x b) block, b <= width."""
        n, b = U.shape
        rows = self._rows[:n, :3 * b]
        us = rows[:, :b]
        us[...] = U[self.order]
        np.multiply(us, us, out=rows[:, b:2 * b])
        np.multiply(us, self.ys, out=rows[:, 2 * b:])
        if b >= SWEEP_MIN_COLUMNS:
            suffix_sweep(rows)
        else:
            rows[...] = np.cumsum(rows[::-1], axis=0)[::-1]
        sums = self._rows[:, :3 * b].take(self.starts, 0)
        np.divide(sums, n, out=sums)
        ubar, var, cov = sums[:, :b], sums[:, b:2 * b], sums[:, 2 * b:]
        # var = s_uu / n - ubar^2 and cov = s_uy / n - ubar * a
        np.subtract(var, ubar * ubar, out=var)
        np.subtract(cov, ubar * self.intercepts, out=cov)
        floored = var < EPS_VAR
        slopes, u_centers = self._slopes[:, :b], self._centers[:, :b]
        np.divide(cov, var, out=slopes, where=~floored)
        slopes[floored] = 0.0
        u_centers[...] = ubar
        return slopes, u_centers

