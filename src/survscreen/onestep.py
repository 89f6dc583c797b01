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
predictor is a block of one.  ``_Kernel`` is the one code path: it builds a
sample's frame (a ``residual_life.AtRiskFit`` and a ``_Martingale``) once,
``_Kernel.influence`` returns a block's moments and (ipw, car), and
``_Kernel.one_step`` adds the checks and the normal interval.  ``one_step``,
``bonferroni_test``, ``conservative_variance`` and both screen variants
reach the influence values only through it.  ``bonferroni_test`` and the
screen's full-sample nuisances run their column blocks through
``_over_blocks``, which splits them across the process's cores: each of w
threads runs its own kernel on blocks of ``BLOCK_COLUMNS // w`` columns, so
all threads' scratch together is one ``BLOCK_COLUMNS``-wide kernel's, and
each block writes its own columns of the caller's arrays.  Each elementwise
operation keeps the operands and order of the formulas above, writing into
Fortran-order scratch, and column means are taken over Fortran-ordered
arrays, so each column is summed in the same (pairwise) order as a 1-D array
and a column's results do not depend on its block, nor on which thread ran
it.  So ``bonferroni_test`` selects with ``bonferroni`` over the p-values,
as every multiple test here does, and its ``best`` is ``one_step`` of the
selected predictor, with the bits its block computed.

Influence values that overflow float64 raise a ``DegeneracyError`` that
says so, checked after the variance floor and before the other checks; and
every floor is written so that a NaN fails it (``~(value >= floor)``).
"""

import math
import threading
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from ._normal import ndtr, ndtri
from .censoring import KaplanMeierFit, fit_censoring_km, synthetic_response
from .dataset import BLOCK_COLUMNS, SurvivalDataset, _cores
from .errors import DegeneracyError, _instance, _integer, _level, _real
from .residual_life import EPS_VAR, SWEEP_MIN_COLUMNS, AtRiskFit

EPS_SIGMA = 1e-8
DUAL_FORM_TOL = 1e-8

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


@dataclass(frozen=True)
class NuisanceBundle:
    """Fitted moments of a block, one entry per block column."""

    u_mean: np.ndarray
    u_var: np.ndarray
    e_mean: np.ndarray
    cov_u_e: np.ndarray


def plugin_slope(bundle: NuisanceBundle) -> np.ndarray:
    return bundle.cov_u_e / bundle.u_var


def _gather(a: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a[rows] for Fortran-order a and out.  The take runs on the
    transposes, so it fills each column of ``out`` in one unbuffered pass;
    a[rows] itself would be C-order."""
    a.T.take(rows, 1, out.T, "clip")  # every row index is valid
    return out


def _colmean(a: np.ndarray) -> np.ndarray:
    """Column means of a Fortran-order block, bitwise a.mean(axis=0) without
    its Python overhead.  Each column is contiguous, so it is summed
    pairwise as a 1-D array is, and its bits do not depend on its block."""
    return np.add.reduce(a, axis=0) / len(a)


class _Martingale:
    """Martingale integrals of the residual-life predictions of a sample's
    rows, for blocks of at most ``width`` columns: where the rows and the
    censoring fit's jumps fall among the knots is found once.

    For row i the integral is E(u_i, x_i) if censored, minus the sum of
    E(u_i, s) * dLambda(s) over hazard jumps s <= x_i.
    """

    def __init__(self, knots, km: KaplanMeierFit, x, delta, width: int):
        jt = km.jump_times
        self.jump_rows = np.searchsorted(knots, jt, side="right")
        self.hazard = km.hazard_increments[:, None]
        self.n_jumps = np.searchsorted(jt, x, side="right")
        self.x_rows = np.searchsorted(knots, x, side="right")
        self.events = np.asarray(delta) != 0
        self._a_eff = np.empty((len(knots) + 1, width), order="F")
        self._terms = np.empty((len(jt), width), order="F")
        self._cum = np.zeros((len(jt) + 1, 2 * width), order="F")  # row 0 stays 0
        self._width = width

    def values(self, intercepts, slopes, u_centers, U, out, t1, t2) -> np.ndarray:
        """The integrals of an (m x b) block into ``out``; t1 and t2 are scratch."""
        b = U.shape[1]
        a_eff = self._a_eff[:, :b]
        np.subtract(intercepts, np.multiply(slopes, u_centers, out=a_eff), out=a_eff)
        terms = self._terms[:, :b]
        cum_a, cum_b = self._cum[:, :b], self._cum[:, self._width:self._width + b]
        for coefficients, cum in ((a_eff, cum_a), (slopes, cum_b)):
            np.multiply(_gather(coefficients, self.jump_rows, terms), self.hazard, out=terms)
            np.cumsum(terms, axis=0, out=cum[1:])
        np.multiply(_gather(slopes, self.x_rows, t1), U, out=t1)
        np.add(_gather(a_eff, self.x_rows, out), t1, out=out)
        out[self.events] = 0.0
        np.multiply(_gather(cum_b, self.n_jumps, t1), U, out=t1)
        np.add(_gather(cum_a, self.n_jumps, t2), t1, out=t1)
        return np.subtract(out, t1, out=out)


def _influence(bundle: NuisanceBundle, U, y, mv, cu, ipw, tmp):
    """(ipw, car) of a block from its moments: cu = U - ubar into ``cu``, ipw
    into ``ipw``, and car = cu / V * mv over the martingale integrals ``mv``."""
    v = bundle.u_var
    np.subtract(U, bundle.u_mean, out=cu)
    np.subtract(y, bundle.e_mean, out=ipw)
    np.multiply(cu, ipw, out=ipw)
    np.divide(ipw, v, out=ipw)
    np.multiply(bundle.cov_u_e, cu, out=tmp)
    np.multiply(tmp, cu, out=tmp)
    np.divide(tmp, v * v, out=tmp)
    np.subtract(ipw, tmp, out=ipw)
    np.divide(cu, v, out=tmp)
    return ipw, np.multiply(tmp, mv, out=mv)


def _raise_first(*checks):
    """Raise what a per-predictor loop would raise first: the earliest column
    failing any check, with the first check it fails.  A check is a pair
    (mask over block columns, function building the error for column c)."""
    failing = np.logical_or.reduce([bad for bad, _ in checks])
    if failing.any():
        c = int(np.argmax(failing))
        raise next(error(c) for bad, error in checks if bad[c])


def _variance_floor(u_var, ks, where=lambda c: ""):
    """The variance-floor check of _raise_first; ``where(c)`` ends the
    message with column c's location, if the caller has one."""
    return ~(u_var >= EPS_VAR), lambda c: DegeneracyError(
        f"predictor {ks[c]} has sample variance {u_var[c]:.3g} below {EPS_VAR}{where(c)}"
    )


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


class _Kernel:
    """The one-step kernel of one sample, for (m x b) blocks of predictors
    of at most ``width`` columns, each passed in Fortran order.

    Nuisances are fitted on the first ``fit_rows`` rows (default: all), and
    the influence values are taken at every row against ``km``, which may be
    fitted on more rows.  The sample's frame (the at-risk fit's sort, knots
    and intercepts, and where the rows and the censoring jumps fall among
    them) is built once.  Every m x b array of a block is a Fortran-order
    view of scratch allocated here, valid until the next block: each column
    is contiguous, so its mean is summed as a 1-D array's and no column's
    bits depend on its block.
    """

    def __init__(self, x, delta, y, km: KaplanMeierFit, width: int, fit_rows=None):
        x = np.asarray(x, dtype=np.float64)
        delta = np.asarray(delta)
        y = np.asarray(y, dtype=np.float64)
        m = len(x)
        n_fit = m if fit_rows is None else fit_rows
        self.fit = AtRiskFit(x[:n_fit], delta[:n_fit], y[:n_fit], width)
        self.mart = _Martingale(self.fit.knots, km, x, delta, width)
        self.y = y[:, None]
        scratch = np.empty((m, 5 * width), order="F")
        self._cu, self._ipw, self._car, self._t1, self._t2 = (
            scratch[:, i * width:(i + 1) * width] for i in range(5))
        self._e = np.empty((n_fit, width), order="F")
        self._prod = self._t1 if n_fit == m else np.empty((n_fit, width), order="F")
        self.e_vals = None  # the last block's predicted responses at the fitting rows

    def influence(self, U):
        """(bundle, ipw, car) of a block; nothing is checked, so the caller
        raises the variance floor where its error order requires."""
        m, b = U.shape
        n_fit = len(self._e)
        Uf = U if n_fit == m else np.asfortranarray(U[:n_fit])
        slopes, u_centers = self.fit.fit(Uf)
        a = self.fit.intercepts
        e_vals = self._e[:, :b]
        np.subtract(Uf, u_centers[0], out=e_vals)
        np.multiply(slopes[0], e_vals, out=e_vals)
        np.add(a[0], e_vals, out=e_vals)
        self.e_vals = e_vals
        prod = self._prod[:, :b]
        u_mean, e_mean = _colmean(Uf), _colmean(e_vals)
        u_var = _colmean(np.multiply(Uf, Uf, out=prod)) - u_mean * u_mean
        cov_u_e = _colmean(np.multiply(Uf, e_vals, out=prod)) - u_mean * e_mean
        bundle = NuisanceBundle(u_mean, u_var, e_mean, cov_u_e)
        t1, t2 = self._t1[:, :b], self._t2[:, :b]
        mv = self.mart.values(a, slopes, u_centers, U, self._car[:, :b], t1, t2)
        return (bundle, *_influence(bundle, U, self.y, mv, self._cu[:, :b], self._ipw[:, :b], t1))

    def one_step(self, U, ks, alpha: float) -> _OneStepBlock:
        """One-step inference for every column of a block.

        Both forms of the estimator are computed and must agree; the
        simplified form is returned.  A failing column raises the error that
        testing the block's predictors one at a time, in order, would raise.
        """
        b = U.shape[1]
        t1 = self._t1[:, :b]
        # floored columns, and columns whose values overflow to NaN, raise below
        with np.errstate(all="ignore"):
            bundle, ipw, car = self.influence(U)
            if_values = np.subtract(ipw, car, out=ipw)
            psi = plugin_slope(bundle)
            form_a = psi + _colmean(if_values)
            cu_y = np.multiply(self._cu[:, :b], self.y, out=t1)
            form_b = _colmean(cu_y) / bundle.u_var - _colmean(car)
            gap = np.abs(form_a - form_b)
            sigma = np.sqrt(_colmean(np.multiply(if_values, if_values, out=t1)))
        _raise_first(
            _variance_floor(bundle.u_var, ks),
            (~(np.isfinite(gap) & np.isfinite(sigma)), lambda c: DegeneracyError(
                f"influence values of predictor {ks[c]} overflow float64")),
            (~(gap <= DUAL_FORM_TOL), lambda c: DegeneracyError(
                f"one-step forms disagree by {gap[c]:.3g} for predictor {ks[c]}")),
            (~(sigma >= EPS_SIGMA), lambda c: DegeneracyError(
                f"influence second moment below floor for predictor {ks[c]}")),
        )
        interval = normal_interval(form_b, sigma, len(self.y), alpha)
        return _OneStepBlock(psi, form_b, if_values, sigma, *interval)


def _over_blocks(p: int, kernel, step) -> None:
    """Run ``step(kernel, cols)`` over blocks of the columns range(p), on w
    threads.

    w is the cores, at most BLOCK_COLUMNS // SWEEP_MIN_COLUMNS (so each
    thread's blocks still take the row sweep) and at most the number of
    BLOCK_COLUMNS-wide blocks, and at least 1.  Each thread builds its own
    kernel with ``kernel(width)`` and takes the next block of BLOCK_COLUMNS
    // w columns until none is left, so all threads' scratch together is one
    BLOCK_COLUMNS-wide kernel's.  The calling thread is one of them, and
    with one no thread is started.  numpy releases the GIL inside the
    kernel's loops.  Blocks are taken in order, and none once a thread has
    failed.  After every thread is joined, the failing block with the lowest
    start raises its exception, which is the one a serial loop would raise:
    every block below it was taken before it and run to the end.
    """
    w = max(1, min(_cores(), BLOCK_COLUMNS // SWEEP_MIN_COLUMNS, -(-p // BLOCK_COLUMNS)))
    width = BLOCK_COLUMNS // w
    starts = iter(range(0, p, width))
    take = threading.Lock()
    failures = []

    def work():
        start = -1  # a kernel that cannot be built fails before every block
        try:
            own = kernel(min(p, width))
            while True:
                with take:
                    start = None if failures else next(starts, None)
                if start is None:
                    return
                step(own, range(start, min(start + width, p)))
        except BaseException as exc:  # raised below, once every thread is joined
            failures.append((start, exc))

    threads = []
    try:
        for _ in range(1, w):
            threads.append(threading.Thread(target=work))
            threads[-1].start()
        work()
    finally:
        for thread in threads:
            thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]


@dataclass(frozen=True)
class OneStepResult:
    """One-step slope inference for a single predictor; ``statistic`` is
    sqrt(n) * s_onestep / sigma_hat, n = len(if_values)."""

    k: int
    psi_plugin: float
    s_onestep: float
    if_values: np.ndarray
    sigma_hat: float
    ci_low: float
    ci_high: float
    statistic: float
    p_value: float
    alpha: float

    def __post_init__(self):
        self.if_values.flags.writeable = False


def one_step(data: SurvivalDataset, k: int, alpha: float = 0.05) -> OneStepResult:
    """One-step estimate for predictor k over the whole sample."""
    _instance("data", data, SurvivalDataset)
    k, alpha = _integer("k", k, 0, data.p - 1), _level(alpha)
    km = fit_censoring_km(data.x, data.delta)
    return _one_step(data, km, synthetic_response(data, km), k, alpha)


def _one_step(data: SurvivalDataset, km, y, k: int, alpha: float) -> OneStepResult:
    """``one_step`` of predictor k given the sample's censoring fit and
    synthetic response."""
    kernel = _Kernel(data.x, data.delta, y, km, 1)
    block = kernel.one_step(data.predictors[:, k:k + 1], (k,), alpha)
    return OneStepResult(
        k=k, psi_plugin=float(block.psi[0]), s_onestep=float(block.s_onestep[0]),
        if_values=block.if_values[:, 0].copy(), sigma_hat=float(block.sigma[0]),
        ci_low=float(block.ci_low[0]), ci_high=float(block.ci_high[0]),
        statistic=float(block.statistic[0]), p_value=float(block.p_value[0]), alpha=alpha,
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
    """Test every predictor marginally; reject if min p < alpha / p.

    The column blocks are split across the process's cores (``_over_blocks``)
    and each writes its columns' p-values and statistics.  ``bonferroni``
    then selects the predictor, and ``best`` is ``one_step`` of it, on the
    same censoring fit and synthetic response: a column's bits do not depend
    on its block, so they are the ones its block computed.  A failing block
    raises the error of the lowest failing predictor, as testing one
    predictor at a time would.
    """
    _instance("data", data, SurvivalDataset)
    alpha = _level(alpha)
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    p_values = np.empty(data.p)
    statistics = np.empty(data.p)

    def step(kernel, cols):
        block = kernel.one_step(data.predictors[:, cols.start:cols.stop], cols, alpha)
        p_values[cols.start:cols.stop] = block.p_value
        statistics[cols.start:cols.stop] = block.statistic

    _over_blocks(data.p, lambda width: _Kernel(data.x, data.delta, y, km, width), step)
    selected, min_p, adjusted_p, reject = bonferroni(p_values, alpha)
    return BonferroniResult(
        p_values=p_values, statistics=statistics, selected=selected,
        best=_one_step(data, km, y, selected, alpha), min_p=min_p, adjusted_p=adjusted_p,
        alpha=alpha, reject=reject,
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
    _instance("data", data, SurvivalDataset)
    k = _integer("k", k, 0, data.p - 1)
    if m_bound is not None:
        m_bound = _real("m_bound", m_bound, 0, math.inf)
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    U = data.predictors[:, k:k + 1]
    kernel = _Kernel(data.x, data.delta, y, km, 1)
    # a floored column, and values that overflow, raise below
    with np.errstate(all="ignore"):
        bundle, ipw, car = kernel.influence(U)
        _raise_first(_variance_floor(bundle.u_var, (k,)))
        star = (ipw - car)[:, 0]
        if m_bound is None:
            m_bound = 4.0 * float(kernel.e_vals[:, 0].std())
            if not m_bound > 0.0:
                raise DegeneracyError(
                    f"default m_bound is {m_bound}: predicted responses do not vary")
        cu = U[:, 0] - bundle.u_mean[0]
        v = bundle.u_var[0]
        base = (cu * cu - v) / (v * v)
        ends = [star + (bundle.cov_u_e[0] - m) * base for m in (-m_bound, m_bound)]
        moments = [float((vals * vals).mean()) for vals in ends]
    if not all(map(math.isfinite, moments)):
        raise DegeneracyError(
            f"conservative variance of predictor {k} is not finite: second moments {moments}")
    return max(moments)
