"""Stabilized sequential screen over growing data prefixes.

The data are processed in a (usually random) order.  For each prefix size j
from q_n to n-1 the most associated predictor is selected from the prefix
alone, a single-observation one-step increment is evaluated at the next
observation, and the increments are combined with inverse-dispersion
weights.  The resulting statistic admits a standard normal calibration,
which is what makes screens over very large predictor counts feasible.

Every per-step quantity is an array.  The selection weights
w_j = (y_j - mean(y_j)) / j depend on the ordering and the prefix censoring
fit, never on the predictors, so one call builds the weights of every
ordering, one n x (n - q_n) matrix each, from all prefix Kaplan-Meier fits
at once, in a few full-array passes per ordering.  A prefix's G(x-) is a
cumprod of factors in [0, 1], so G at its largest event time decides EPS_G.
A prefix mean sums [0.0, y[:j]] by reduceat, which is y[:j].sum() bit for bit.
Selection for every step of every ordering is then one pass over the predictors
in column blocks (one matrix product per block and ordering, cumulative
prefix moments, a running maximum per step).  The increments use the
full-sample censoring fit and either prefix ("prefix" variant, refitted at
each step) or full-sample ("full" variant) regression moments.  With
full-sample moments each distinct selected predictor is fitted once, in
column blocks, and a step reads its fixed influence values: their
dispersion over the prefix by cumulative sums, and the value at the next row.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import censoring
from ._rng import stream
from .censoring import _weighted_response, fit_censoring_km, synthetic_response
from .dataset import SurvivalDataset
from .errors import DegeneracyError, InputError
from .onestep import (BLOCK_COLUMNS, EPS_SIGMA, _raise_first, _variance_floor, bonferroni,
                      influence_block, normal_interval, plugin_slope)
from .residual_life import EPS_VAR

VARIANTS = ("prefix", "full")


@dataclass(frozen=True, eq=False)
class StabilizedResult:
    """Stabilized estimate with its per-step columns and normal calibration.

    ``k``, ``m``, ``sigma``, ``weight`` and ``increment`` are read-only
    arrays over the prefix steps: element i is prefix size q_n + i, with its
    selected predictor and sign, dispersion, weight sigma_bar / sigma and
    weighted increment.
    """

    s_star: float
    sigma_bar: float
    k: np.ndarray
    m: np.ndarray
    sigma: np.ndarray
    weight: np.ndarray
    increment: np.ndarray
    ci_low: float
    ci_high: float
    p_value: float
    q_n: int
    variant: str
    n: int
    alpha: float

    def __post_init__(self):
        for arr in (self.k, self.m, self.sigma, self.weight, self.increment):
            arr.flags.writeable = False

    @property
    def statistic(self) -> float:
        """Standardized statistic sqrt(n - q_n) * estimate / sigma_bar."""
        return math.sqrt(self.n - self.q_n) * self.s_star / self.sigma_bar

    def modal_k(self) -> int:
        """The most often selected predictor; the smallest index on a tie."""
        return int(np.bincount(self.k).argmax())


def default_qn(n: int) -> int:
    """Recommended smallest prefix size: half the sample."""
    return n // 2


def _selection_weights(x, delta, perms, first, last):
    """Selection weights of the prefix sizes first..last of every ordering.

    Returns ``(weights, failures)``, one entry per ordering.  ``weights[r]``
    is an F-order n x steps matrix whose column i holds
    w = (y - mean(y)) / j for prefix size j = first + i at the data rows
    perm[:j], and 0 at the other rows; y are the IPCW responses of the prefix
    under the prefix's own censoring fit.  Censoring and at-risk counts of
    every prefix at the sample's censoring times are cumulative sums over
    the ordered rows.  A time with no censoring in a prefix has hazard 0 and
    contributes the exact factor 1.0, so each prefix's G equals
    fit_censoring_km and survival_at on that prefix, bit for bit.
    ``failures[r]`` is None, or (i, error) for ordering r's first prefix
    whose responses fail the EPS_G check; its rows from i on are 0.

    Each ordering is worked in one steps x (n + 1) buffer in ordered layout.
    Each ordering's matrix is its own array: freeing one R-sized array raises
    glibc's dynamic mmap threshold above a CSV table's size, and the heap then
    keeps the tables of later reads (2.7 MB more peak RSS at n=500, p=2000).
    """
    n, steps = len(x), last - first + 1
    sizes = np.arange(first, last + 1, dtype=np.float64)
    times = np.unique(x[delta == 0])
    # work column 0 is a row with response 0.0 / G(-inf) = 0.0 / 1.0, and
    # columns 1..n are the data rows in the ordering
    x0 = np.concatenate(([0.0], x))
    slots = np.concatenate(([0], np.searchsorted(times, x, side="left")))  # G(x-) column
    outside = np.arange(n + 1) > sizes[:, None]  # row i: the columns past prefix i
    # reduceat over row i's columns 0..j sums [0.0, y[:j]]; the trailing 0.0
    # keeps the end index of the last segment in range when j = n
    work = np.zeros(steps * (n + 1) + 1)
    rows = work[:-1].reshape(steps, n + 1)
    starts = np.arange(steps) * (n + 1)
    segments = np.column_stack((starts, starts + np.arange(first + 1, last + 2))).ravel()
    weights, failures = [], []
    for perm in perms:
        xp, dp = x[perm], delta[perm]
        cols = np.concatenate(([0], perm + 1))
        censored = _prefix_counts((dp[:, None] == 0) & (xp[:, None] == times), first, last)
        at_risk = _prefix_counts(xp[:, None] >= times, first, last)
        # censored rows are at risk, so a time with no row at risk has 0 / 1
        hazard = censored / np.maximum(at_risk, 1)
        survival = np.ones((steps, len(times) + 1))
        np.cumprod(1.0 - hazard, axis=1, out=survival[:, 1:])

        # G(x-) is a cumprod of factors in [0, 1], so it does not increase in
        # x: G at a prefix's largest event time decides its EPS_G check (a
        # prefix without events reads G(-inf) = 1)
        latest = np.maximum.accumulate(np.where(dp == 1, xp, -np.inf))[first - 1:last]
        g_latest = survival[np.arange(steps), np.searchsorted(times, latest, side="left")]
        failing = np.flatnonzero(g_latest < censoring.EPS_G)
        stop = int(failing[0]) if len(failing) else steps
        failure = None
        if stop < steps:
            j = first + stop
            try:  # raises the check's own error
                _weighted_response(xp[:j], dp[:j], survival[stop, slots[cols[1:j + 1]]])
            except DegeneracyError as exc:
                failure = (stop, exc)
        failures.append(failure)

        w = rows[:stop]
        np.take(survival[:stop], slots[cols], axis=1, out=w, mode="clip")
        # columns past a prefix may hold inf or nan; only the staircase is read
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x0[cols], w, out=w)
            w[:, 1 + np.flatnonzero(dp == 0)] = 0.0
            means = np.add.reduceat(work, segments[:2 * stop])[::2] / sizes[:stop]
        w -= means[:, None]
        w /= sizes[:stop, None]
        w[outside[:stop]] = 0.0
        out = np.empty((steps, n))
        np.take(w, np.argsort(perm) + 1, axis=1, out=out[:stop], mode="clip")
        out[stop:] = 0.0
        weights.append(out.T)
    return weights, failures


def _prefix_counts(indicator, first, last):
    """Column sums of the (n x T) indicator over rows :j for j = first..last."""
    counts = np.cumsum(indicator[first - 1:last], axis=0)
    counts += indicator[:first - 1].sum(axis=0)
    return counts


class _RunningSelection:
    """Per-step largest |slope| over the blocks seen so far, and every
    column within the near-tie tolerance of it (step, column, slope, var)."""

    def __init__(self, steps):
        self.best = np.zeros(steps)
        self.step = np.empty(0, dtype=np.intp)
        self.col = np.empty(0, dtype=np.intp)
        self.slope = np.empty(0)
        self.var = np.empty(0)

    def update(self, c0, slopes, var):
        size = np.abs(slopes)
        block_best = size.max(axis=1)
        self.best = np.maximum(self.best, block_best)
        cut = self.best * (1.0 - 1e-9)
        keep = np.abs(self.slope) >= cut[self.step]
        rows = np.flatnonzero((block_best >= cut) & (block_best > 0.0))
        r, c = np.nonzero(size[rows] >= cut[rows, None])
        r = rows[r]
        self.step = np.concatenate((self.step[keep], r))
        self.col = np.concatenate((self.col[keep], c0 + c))
        self.slope = np.concatenate((self.slope[keep], slopes[r, c]))
        self.var = np.concatenate((self.var[keep], var[r, c]))

    def finish(self, U, perm, weights, first):
        """(ks, ms): a step with best 0 selects (0, +1); a single candidate
        takes the sign of its blocked slope; near-tied candidates are
        re-evaluated with one per-column dot product, because blocked
        products can differ in the last ulp between column slots, and the
        first maximum (smallest index) wins."""
        steps = len(self.best)
        ks = np.zeros(steps, dtype=np.intp)
        ms = np.ones(steps, dtype=np.int64)
        order = np.argsort(self.step, kind="stable")
        step, col, slope, var = self.step[order], self.col[order], self.slope[order], self.var[order]
        counts = np.bincount(step, minlength=steps)
        single = counts[step] == 1
        ks[step[single]] = col[single]
        ms[step[single]] = np.where(slope[single] > 0.0, 1, -1)
        starts = np.concatenate(([0], np.cumsum(counts)))
        for i in np.flatnonzero(counts > 1):
            j = first + i
            w = weights[perm[:j], i]
            cand = slice(starts[i], starts[i + 1])
            exact = np.array([
                float(np.dot(U[perm[:j], k], w)) / v for k, v in zip(col[cand], var[cand])
            ])
            pos = int(np.argmax(np.abs(exact)))
            s = float(exact[pos])
            if s != 0.0:
                ks[i], ms[i] = col[cand][pos], (1 if s > 0 else -1)
        return ks, ms


def _select_steps(U, perms, weights, first):
    """Selected (ks, ms) of every prefix step of every ordering.

    ``weights[r]`` is ordering r's n x steps matrix, its column i being
    prefix size first + i; one _selection_weights call builds those of all
    orderings.  The prefix means in them are reduceat sums, bitwise
    y[:j].sum(), and the EPS_G check reads G at each prefix's largest event
    time.  U is read once, in blocks of
    BLOCK_COLUMNS columns that every ordering visits while the block is in
    cache; no permuted copy of U is made.
    """
    n, p = U.shape
    steps = weights[0].shape[1]
    sizes = np.arange(first, first + steps, dtype=np.float64)[:, None]
    width = min(p, BLOCK_COLUMNS)
    permuted = np.empty((width, n))
    s1 = np.empty((steps, width))
    s2 = np.empty((steps, width))
    slopes = np.empty((steps, width))
    running = [_RunningSelection(steps) for _ in perms]
    for c0 in range(0, p, BLOCK_COLUMNS):
        block = U[:, c0:c0 + BLOCK_COLUMNS]
        b = block.shape[1]
        for perm, w, run in zip(perms, weights, running):
            # the block's rows in the ordering, one predictor per row; perm
            # is a permutation, and "clip" lets take write into `out` directly
            rows = np.take(block.T, perm, axis=1, out=permuted[:b], mode="clip")
            head, tail = rows[:, :first], rows[:, first:first + steps - 1].T
            # prefix moments: the first `first` rows summed, then one row added
            # per step, the order of a step-by-step running sum
            m1, m2 = s1[:, :b], s2[:, :b]
            m1[0] = head.sum(axis=1)
            m2[0] = np.einsum("ij,ij->i", head, head)
            m1[1:] = tail
            np.square(tail, out=m2[1:])
            np.cumsum(m1, axis=0, out=m1)
            np.cumsum(m2, axis=0, out=m2)
            m1 /= sizes
            m2 /= sizes
            var = np.subtract(m2, np.square(m1, out=m1), out=m2)
            floored = var < EPS_VAR
            cov = np.matmul(w.T, block, out=slopes[:, :b])
            np.divide(cov, var, out=cov, where=~floored)
            cov[floored] = 0.0
            run.update(c0, cov, var)
    return [run.finish(U, perm, w, first) for perm, w, run in zip(perms, weights, running)]


def select_predictor(data: SurvivalDataset, j: Optional[int] = None):
    """Most associated predictor (index, sign) from the first j rows."""
    j = data.n if j is None else j
    if not 2 <= j <= data.n:
        raise InputError(f"prefix size must be in [2, n], got {j} for n={data.n}")
    perms = [np.arange(data.n)]
    weights, (failure,) = _selection_weights(data.x, data.delta, perms, j, j)
    if failure is not None:
        raise failure[1]
    (ks, ms), = _select_steps(data.predictors, perms, weights, j)
    return int(ks[0]), int(ms[0])


def _check_settings(n: int, q_n: Optional[int], variant: str) -> int:
    q = default_qn(n) if q_n is None else int(q_n)
    if not 2 <= q <= n - 1:
        raise InputError(f"q_n must be in [2, n-1], got {q} for n={n}")
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}, got {variant!r}")
    return q


def stabilized_estimate(
    data: SurvivalDataset,
    q_n: Optional[int] = None,
    variant: str = "full",
    ordering: Optional[np.ndarray] = None,
    alpha: float = 0.05,
) -> StabilizedResult:
    """Run the sequential screen under one ordering of the data.

    ``ordering`` is a permutation of 0..n-1 (default: identity).
    """
    n = data.n
    q = _check_settings(n, q_n, variant)
    if ordering is None:
        perm = np.arange(n)
    else:
        perm = np.asarray(ordering, dtype=np.intp)
        if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
            raise InputError("ordering must be a permutation of 0..n-1")
    return _screen(data, q, variant, [perm], alpha)[0]


def _screen(data, q, variant, perms, alpha):
    """Selection for every ordering in one pass over U, the nuisances of every
    step as arrays, then each ordering's checks and aggregate.  Errors surface
    as in a step-by-step run: ordering by ordering, step by step (variance
    floor, then dispersion), an ordering's EPS_G failure after earlier steps."""
    n = data.n
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    weights, failures = _selection_weights(data.x, data.delta, perms, q, n - 1)
    selections = _select_steps(data.predictors, perms, weights, q)
    # the selected predictors of the steps before each ordering's EPS_G failure
    heads = [ks[:n - q if failure is None else failure[0]]
             for (ks, _), failure in zip(selections, failures)]
    steps = (_full_sample_steps if variant == "full" else _prefix_steps)(
        data, km, y, perms, heads, q)
    return tuple(
        _ordering_result(q, variant, n, alpha, ks, ms, failure, *step)
        for (ks, ms), failure, step in zip(selections, failures, steps)
    )


def _full_sample_steps(data, km, y, perms, heads, q):
    """(sig2, raw, u_var) of every ordering's steps from full-sample nuisances:
    each distinct selected predictor is fitted once, in column blocks, and a
    step at prefix size j reads its fixed influence values in the ordering,
    their second central moment over rows :j by cumulative sums and row j."""
    distinct = np.unique(np.concatenate(heads))
    if_values = np.empty((data.n, len(distinct)))
    psi, u_var = np.empty(len(distinct)), np.empty(len(distinct))
    with np.errstate(all="ignore"):  # a floored column is raised at its first step
        for c0 in range(0, len(distinct), BLOCK_COLUMNS):
            cols = slice(c0, c0 + BLOCK_COLUMNS)
            U = data.predictors[:, distinct[cols]]
            bundle, ipw, car = influence_block(U, data.x, data.delta, y, km)
            if_values[:, cols] = ipw - car
            psi[cols] = plugin_slope(bundle)
            u_var[cols] = bundle.u_var

    steps = []
    for perm, ks in zip(perms, heads):
        col = np.searchsorted(distinct, ks)
        own, local = np.unique(col, return_inverse=True)
        values = if_values[np.ix_(perm, own)]
        cs = np.cumsum(values, axis=0)
        csq = np.cumsum(values * values, axis=0)
        j = np.arange(q, q + len(ks))
        # float_power squares with C pow, as a float64 scalar's ** 2 does; an
        # array's ** 2 is a multiply, which can differ in the last bit
        sig2 = csq[j - 1, local] / j - np.float_power(cs[j - 1, local] / j, 2)
        steps.append((sig2, psi[col] + values[j, local], u_var[col]))
    return steps


def _prefix_steps(data, km, y, perms, heads, q):
    """(sig2, raw, u_var) of every ordering's steps: at prefix size j, the
    selected predictor's nuisances fitted on the ordering's first j rows, its
    influence values there and at row j."""
    steps = []
    with np.errstate(all="ignore"):  # a floored fit is raised at its step
        for perm, ks in zip(perms, heads):
            xp, dp, yp = data.x[perm], data.delta[perm], y[perm]
            rows = []
            for j, k in enumerate(ks, start=q):
                u = data.predictors[perm[:j + 1], k:k + 1]
                bundle, ipw, car = influence_block(u, xp[:j + 1], dp[:j + 1], yp[:j + 1], km,
                                                   fit_rows=j)
                if_values = (ipw - car)[:, 0]
                raw = float(plugin_slope(bundle)[0]) + float(if_values[j])
                rows.append((if_values[:j].var(), raw, bundle.u_var[0]))
            steps.append(np.reshape(rows, (-1, 3)).T)
    return steps


def _ordering_result(q, variant, n, alpha, ks, ms, failure, sig2, raws, u_var):
    """Checks of the steps before the ordering's EPS_G failure, in step order,
    then that failure, then the inverse-dispersion aggregate."""
    sigmas = np.sqrt(np.maximum(sig2, 0.0))
    _raise_first(
        _variance_floor(u_var, ks),
        (sigmas < EPS_SIGMA, lambda i: DegeneracyError(
            f"influence dispersion {sigmas[i]:.3g} below {EPS_SIGMA} at prefix size {q + i} "
            f"(predictor {ks[i]})")),
    )
    if failure is not None:
        raise failure[1]

    steps = n - q
    sigma_bar = steps / float(np.sum(1.0 / sigmas))
    weights = sigma_bar / sigmas
    increments = weights * ms * raws
    s_star = float(increments.mean())
    ci_low, ci_high, _, p = normal_interval(s_star, sigma_bar, steps, alpha)

    return StabilizedResult(
        s_star=s_star, sigma_bar=sigma_bar, k=ks, m=ms, sigma=sigmas, weight=weights,
        increment=increments, ci_low=ci_low, ci_high=ci_high, p_value=float(p),
        q_n=q, variant=variant, n=n, alpha=alpha,
    )


@dataclass(frozen=True)
class MultiOrderingResult:
    """Screen decision over R random orderings with Bonferroni control."""

    results: tuple
    p_values: tuple
    min_p: float
    adjusted_p: float
    best_index: int
    reject: bool
    alpha: float
    seed: int

    @property
    def best(self) -> StabilizedResult:
        return self.results[self.best_index]


def multi_ordering_test(
    data: SurvivalDataset,
    orderings: int = 10,
    q_n: Optional[int] = None,
    variant: str = "full",
    alpha: float = 0.05,
    seed: int = 0,
) -> MultiOrderingResult:
    """Run R independent random orderings; reject if min p < alpha / R.

    Ordering r draws its permutation from the counter-based stream
    (seed, r), and each ordering equals stabilized_estimate under that
    permutation.  Selection for all orderings shares one pass over U.
    """
    if orderings < 1:
        raise InputError(f"orderings must be >= 1, got {orderings}")
    q = _check_settings(data.n, q_n, variant)
    perms = [stream(seed, r).permutation(data.n) for r in range(orderings)]
    results = _screen(data, q, variant, perms, alpha)

    p_values = tuple(r.p_value for r in results)
    best_index, min_p, adjusted_p, reject = bonferroni(p_values, alpha)
    return MultiOrderingResult(
        results=results, p_values=p_values, min_p=min_p, adjusted_p=adjusted_p,
        best_index=best_index, reject=reject, alpha=alpha, seed=seed,
    )
