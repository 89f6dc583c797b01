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
at once, in a few full-array passes per ordering.  A prefix mean sums
[0.0, y[:j]] by reduceat, which is y[:j].sum() bit for bit.
Selection for every step of every ordering is then one pass over the predictors
in column blocks: one matrix product per block and ordering gives the slope
numerators, and a running maximum per step carries the selection.  A certified
lower bound on each column's prefix variances, from a few checkpoint prefix
sums, drops the columns whose slopes stay below every step's near-tie cut; only
the others get the exact cumulative prefix moments.  The increments use the
full-sample censoring fit and either prefix ("prefix" variant, refitted at
each step) or full-sample ("full" variant) regression moments.  With
full-sample moments each distinct selected predictor is fitted once, in
column blocks, and a step reads its fixed influence values: their
dispersion over the prefix by cumulative sums, and the value at the next row.
From selection to the results the steps are orderings x steps arrays, so one
check, one inverse-dispersion aggregate and one normal calibration serve all.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import stream
from .censoring import fit_censoring_km, synthetic_response
from .dataset import BLOCK_COLUMNS, SurvivalDataset
from .errors import DegeneracyError, InputError, _choice, _instance, _integer, _level
from .onestep import (EPS_SIGMA, _Kernel, _over_blocks, _raise_first, _variance_floor,
                      bonferroni, normal_interval, plugin_slope)
from .residual_life import EPS_VAR

VARIANTS = ("prefix", "full")


@dataclass(frozen=True, eq=False)
class StabilizedResult:
    """Stabilized estimate with its per-step columns and normal calibration.

    ``k``, ``m``, ``sigma``, ``weight`` and ``increment`` are read-only
    arrays over the prefix steps: element i is prefix size q_n + i, with its
    selected predictor and sign, dispersion, weight sigma_bar / sigma and
    weighted increment.  ``statistic`` is sqrt(n - q_n) * s_star / sigma_bar.
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
    statistic: float
    p_value: float
    q_n: int
    variant: str
    n: int
    alpha: float

    def __post_init__(self):
        for arr in (self.k, self.m, self.sigma, self.weight, self.increment):
            arr.flags.writeable = False

    def modal_k(self) -> int:
        """The most often selected predictor; the smallest index on a tie."""
        return int(np.bincount(self.k).argmax())


def default_qn(n: int) -> int:
    """Recommended smallest prefix size: half the sample."""
    return n // 2


def _selection_weights(x, delta, perms, first, last):
    """Selection weights of the prefix sizes first..last of every ordering.

    Returns one F-order n x steps matrix per ordering, whose column i holds
    w = (y - mean(y)) / j for prefix size j = first + i at the data rows
    perm[:j], and 0 at the other rows; y are the IPCW responses of the prefix
    under the prefix's own censoring fit.  Censoring and at-risk counts of
    every prefix at the sample's censoring times are cumulative sums over
    the ordered rows.  A time with no censoring in a prefix has hazard 0 and
    contributes the exact factor 1.0, so each prefix's G equals
    fit_censoring_km and survival_at on that prefix, bit for bit.  At an
    event x of a prefix of j rows, j G(x-) >= Y(x) >= 1, so every response is
    finite and needs no floor.

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
    w = work[:-1].reshape(steps, n + 1)
    starts = np.arange(steps) * (n + 1)
    segments = np.column_stack((starts, starts + np.arange(first + 1, last + 2))).ravel()
    weights = []
    for perm in perms:
        xp, dp = x[perm], delta[perm]
        cols = np.concatenate(([0], perm + 1))
        censored = _prefix_counts((dp[:, None] == 0) & (xp[:, None] == times), first, last)
        at_risk = _prefix_counts(xp[:, None] >= times, first, last)
        # censored rows are at risk, so a time with no row at risk has 0 / 1
        hazard = censored / np.maximum(at_risk, 1)
        survival = np.ones((steps, len(times) + 1))
        np.cumprod(1.0 - hazard, axis=1, out=survival[:, 1:])

        np.take(survival, slots[cols], axis=1, out=w, mode="clip")
        # columns past a prefix may hold inf or nan; only the staircase is read
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x0[cols], w, out=w)
            w[:, 1 + np.flatnonzero(dp == 0)] = 0.0
            means = np.add.reduceat(work, segments)[::2] / sizes
        w -= means[:, None]
        w /= sizes[:, None]
        w[outside] = 0.0
        out = np.empty((steps, n))
        np.take(w, np.argsort(perm) + 1, axis=1, out=out, mode="clip")
        weights.append(out.T)
    return weights


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

    def cut(self):
        """Per step, the smallest |slope| that can still be a candidate."""
        return self.best * (1.0 - 1e-9)

    def update(self, cols, slopes, var):
        """Fold in the slopes of the columns ``cols`` (absolute indices)."""
        size = np.abs(slopes)
        block_best = size.max(axis=1)
        self.best = np.maximum(self.best, block_best)
        cut = self.cut()
        keep = np.abs(self.slope) >= cut[self.step]
        rows = np.flatnonzero((block_best >= cut) & (block_best > 0.0))
        r, c = np.nonzero(size[rows] >= cut[rows, None])
        r = rows[r]
        self.step = np.concatenate((self.step[keep], r))
        self.col = np.concatenate((self.col[keep], cols[c]))
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


# steps per window of the certified bound: a window of L steps at prefix sizes
# from c on loses at most a factor c / (c + L - 1) of the variance, 6% at
# c = 250, while the checkpoint product stays about 2 / L of the slope product
_WINDOW = 16
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _prefix_variance(rows, first, steps, m1, m2):
    """Computed prefix variances of the predictors in ``rows`` (one predictor
    per row, its values in the ordering) at prefix sizes first..first+steps-1,
    written into the steps x len(rows) buffers ``m2`` (returned) and ``m1``.

    The first ``first`` values are summed pairwise, then one value is added
    per step, the order of a step-by-step running sum; the variance is the
    uncentred m2 - m1**2.  ``rows`` must be C-contiguous, as _select_steps
    makes it: then each predictor's values are summed on their own, so its
    variances do not depend on which predictors share ``rows``.
    """
    sizes = np.arange(first, first + steps, dtype=np.float64)[:, None]
    head, tail = rows[:, :first], rows[:, first:first + steps - 1].T
    m1[0] = head.sum(axis=1)
    m2[0] = np.einsum("ij,ij->i", head, head)
    m1[1:] = tail
    np.square(tail, out=m2[1:])
    np.cumsum(m1, axis=0, out=m1)
    np.cumsum(m2, axis=0, out=m2)
    m1 /= sizes
    m2 /= sizes
    return np.subtract(m2, np.square(m1, out=m1), out=m2)


class _WindowBound:
    """Certified lower bounds on the computed prefix variances of a block's
    columns, one per window of _WINDOW consecutive steps and ordering.

    Window w covers the prefix sizes c..e, c = points[w] and e = ends[w]; its
    bound comes from the prefix sums of the centred column and of its square
    at c and at next = points[w + 1], which is e + 1 capped at n.  The 0/1
    matrix of those prefixes, every ordering's rows stacked, times the centred
    block and times its square gives every sum.
    """

    def __init__(self, perms, first, steps, width):
        n = len(perms[0])
        self.windows = np.arange(0, steps, _WINDOW)  # each window's first step
        self.points = np.append(first + self.windows, min(first + steps, n))
        self.ends = np.minimum(self.points[:-1] + _WINDOW - 1, first + steps - 1)
        self.indicator = np.concatenate(
            [np.argsort(perm) < self.points[:, None] for perm in perms]).astype(np.float64)
        self.sums = np.empty((len(self.indicator), 2 * width))
        self.peak = np.empty((len(self.windows), width))
        self.steps = steps
        # the constants of lower(), per window where they vary; derived there
        u, c, e = _UNIT_ROUNDOFF, self.points[:-1, None] * 1.0, self.ends[:, None] * 1.0
        self.eta = 2.0 * (n + 3) * u
        self.head_factor = (1.0 - self.eta) / e * (1.0 - 64 * u)
        self.span = e - c
        self.sum_error = 4.0 * self.eta ** 2 * c  # (2 eta)**2 c
        self.drift_factor = (1.0 + 32 * u) / c
        self.kernel_error = 16.0 * n * u
        self.scale_factor = self.kernel_error / c

    def load(self, block, centred):
        """Checkpoint sums of ``block`` centred by its column means, and of
        its square; ``centred`` is an n x b F-order scratch buffer.

        The bound holds for any shift of the columns.  When no column mean
        exceeds 1e-12 (standardized columns), the shift is 0 and the
        subtraction is skipped: for a column whose variance reaches EPS_VAR,
        centring would then move its bound by a relative 1e-8 at most.
        """
        b = block.shape[1]
        offsets = block.mean(axis=0)
        if np.abs(offsets).max() > 1e-12:
            shifted = np.subtract(block, offsets, out=centred)
        else:
            offsets[:] = 0.0
            shifted = block
        self.offset_term = self.kernel_error * np.square(offsets)
        np.matmul(self.indicator, shifted, out=self.sums[:, :b])
        np.matmul(self.indicator, np.square(shifted, out=centred), out=self.sums[:, b:2 * b])

    def lower(self, r):
        """windows x b lower bounds on ordering r's computed prefix variances.

        Notation: u is the unit roundoff, g(k) = k u / (1 - k u), x a
        column's values in the ordering, a its shift from load(), Z = x - a
        exactly, and S1_j, S2_j the exact sums of Z and Z**2 over the first j
        rows.

        1. Exact arithmetic.  A variance is shift-invariant, so
           V_j = S2_j / j - (S1_j / j)**2.  For c <= j <= e, S2_j >= S2_c,
           and by Cauchy-Schwarz over the j - c <= e - c added rows,
           |S1_j - S1_c| <= sqrt((e - c) (S2_next - S2_c)), hence
           V_j >= S2_c / e - ((|S1_c| + sqrt((e - c) (S2_next - S2_c))) / c)**2.
        2. The checkpoint sums.  The centred values are fl(x - a) =
           Z (1 + d), |d| <= u, and their squares carry g(3).  A dot product
           of n terms with 0/1 weights is off by at most g(n) times the sum of
           the terms' magnitudes, in any summation order, so with
           eta = 2 (n + 3) u >= g(n + 3) the computed sums satisfy
           |^S1_c - S1_c| <= eta sqrt(c S2_c) and |^S2_c - S2_c| <= eta S2_c.
           The bound of 1 then holds with S2_c >= ^S2_c (1 - eta),
           |S1_c| <= |^S1_c| + 2 eta sqrt(c ^S2_c) and
           S2_next - S2_c <= max(^S2_next - ^S2_c, 0) + 3 eta ^S2_next.
        3. The exact pass (_prefix_variance) computes V_j as m2 - m1**2 from
           uncentred sums of j terms in some order; with m2_j = sum(x**2) / j
           it is off by at most g(3 j + 6) m2_j.  As x = Z + a,
           m2_j <= 2 S2_j / j + 2 a**2 <= 2 (1 + 2 eta) (^S2_next / c + a**2),
           and 2 (1 + 2 eta) g(3 n + 6) <= 16 n u for n >= 2.
        4. Evaluating the bound of 2 takes at most a dozen roundings per
           term, which the factors 1 - 64 u and (1 + 32 u)**2 >= 1 + 64 u
           cover.

        So with A = ^S2_c (1 - eta) (1 - 64 u) / e,
        B = (|^S1_c| + 2 eta sqrt(c ^S2_c) + sqrt((e - c) D)) (1 + 32 u) / c,
        D = max(^S2_next - ^S2_c, 0) + 3 eta ^S2_next and
        M = 16 n u (^S2_next / c + a**2), lb = A - B**2 - M is at most every
        computed variance of the window.  Centring keeps lb close to the
        variance for columns with large means; a near-constant column gets
        lb <= 0.
        """
        k, b = len(self.points), len(self.offset_term)
        sums = self.sums[r * k:(r + 1) * k]
        s1, s2, s2_next = sums[:-1, :b], sums[:-1, b:2 * b], sums[1:, b:2 * b]
        spread = np.subtract(s2_next, s2)  # sqrt((e - c) D)
        np.maximum(spread, 0.0, out=spread)
        spread += 3.0 * self.eta * s2_next
        spread *= self.span
        np.sqrt(spread, out=spread)
        drift = np.sqrt(self.sum_error * s2)  # B
        drift += np.abs(s1)
        drift += spread
        drift *= self.drift_factor
        lb = s2 * self.head_factor  # A - B**2 - M
        lb -= np.square(drift, out=drift)
        lb -= s2_next * self.scale_factor
        lb -= self.offset_term
        return lb

    def survivors(self, r, cov, cut, scratch):
        """Columns of ordering r whose slope can reach ``cut`` at some step.

        A column is dropped when, in every window, its largest |cov| / cut
        over the window's steps is below its variance bound lb: then
        |cov| / var < cut at each step.  Against the roundings of 1 / cut,
        of the product and of the computed slope fl(cov / var), the test is
        against lb (1 - 8 u); a step whose cut is 0 keeps every column.
        """
        u = _UNIT_ROUNDOFF
        inverse = np.divide(1.0, cut, out=np.zeros_like(cut), where=cut > 0.0)
        ratio = np.multiply(np.abs(cov, out=scratch), inverse[:, None], out=scratch)
        ratio[cut == 0.0] = np.inf
        full, b = self.steps // _WINDOW, cov.shape[1]
        peak = self.peak[:, :b]
        np.max(ratio[:full * _WINDOW].reshape(full, _WINDOW, b), axis=1, out=peak[:full])
        if full < len(peak):
            np.max(ratio[full * _WINDOW:], axis=0, out=peak[full])
        return np.flatnonzero(~(peak < self.lower(r) * (1.0 - 8 * u)).all(axis=0))


def _select_steps(U, perms, weights, first):
    """Selected (ks, ms) of every prefix step of every ordering, orderings x steps.

    ``weights[r]`` is ordering r's n x steps matrix, its column i being
    prefix size first + i; one _selection_weights call builds those of all
    orderings.  U is read once, in blocks of BLOCK_COLUMNS columns that every
    ordering visits while the block is in cache; no permuted copy of U is
    made.  Per block and ordering, one product gives every step's slope
    numerators.  Once an ordering has a nonzero best, a column whose slope
    provably stays below every step's near-tie cut is dropped (_WindowBound);
    only the columns left get the exact prefix moments (_prefix_variance) and
    their slopes.  A dropped slope is below the cut before the block, so it
    could be neither a step's best nor a near-tie candidate, and the
    selections are those of the exact pass on every column.
    """
    n, p = U.shape
    steps = weights[0].shape[1]
    width = min(p, BLOCK_COLUMNS)
    permuted = np.empty((width, n))
    s1 = np.empty(steps * width)  # viewed as steps x m for the m columns at hand
    s2 = np.empty(steps * width)
    slopes = np.empty((steps, width))
    running = [_RunningSelection(steps) for _ in perms]
    bound = None  # built at the first block where a cut is nonzero
    for c0 in range(0, p, BLOCK_COLUMNS):
        block = U[:, c0:c0 + BLOCK_COLUMNS]
        b = block.shape[1]
        cuts = [run.cut() for run in running]
        pruning = any(cut.any() for cut in cuts)
        if pruning:
            if bound is None:
                bound = _WindowBound(perms, first, steps, width)
                gathered = np.empty((width, n))
            bound.load(block, permuted[:b].T)
        for r, (perm, w, run, cut) in enumerate(zip(perms, weights, running, cuts)):
            cov = np.matmul(w.T, block, out=slopes[:, :b])
            if cut.any():
                cols = bound.survivors(r, cov, cut, s1[:steps * b].reshape(steps, b))
                if len(cols) == 0:
                    continue
                # "clip" lets take write into `out` directly; every index is valid
                source = np.take(block.T, cols, axis=0, out=gathered[:len(cols)], mode="clip")
            else:
                cols, source = np.arange(b), block.T
            m = len(cols)
            m1, m2 = s1[:steps * m].reshape(steps, m), s2[:steps * m].reshape(steps, m)
            # the columns' rows in the ordering, one predictor per row
            rows = np.take(source, perm, axis=1, out=permuted[:m], mode="clip")
            var = _prefix_variance(rows, first, steps, m1, m2)
            # m1 is free once var is formed
            slope = cov if m == b else np.take(cov, cols, axis=1, out=m1, mode="clip")
            floored = var < EPS_VAR
            np.divide(slope, var, out=slope, where=~floored)
            slope[floored] = 0.0
            run.update(c0 + cols, slope, var)
    ks, ms = zip(*(run.finish(U, perm, w, first) for perm, w, run in zip(perms, weights, running)))
    return np.array(ks), np.array(ms)


def select_predictor(data: SurvivalDataset, j: Optional[int] = None):
    """Most associated predictor (index, sign) from the first j rows."""
    _instance("data", data, SurvivalDataset)
    j = _integer("j", data.n if j is None else j, 2, data.n)
    perms = [np.arange(data.n)]
    weights = _selection_weights(data.x, data.delta, perms, j, j)
    ks, ms = _select_steps(data.predictors, perms, weights, j)
    return int(ks[0, 0]), int(ms[0, 0])


def _check_settings(n: int, q_n: Optional[int], variant: str, alpha: float):
    """The checked (q_n, alpha); q_n defaults to default_qn(n)."""
    q = _integer("q_n", default_qn(n) if q_n is None else q_n, 2, n - 1)
    _choice("variant", variant, VARIANTS)
    return q, _level(alpha)


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
    _instance("data", data, SurvivalDataset)
    n = data.n
    q, alpha = _check_settings(n, q_n, variant, alpha)
    perm = np.arange(n)
    if ordering is not None:
        # compared as given: a cast first would truncate 0.5, 1.5, ... to a permutation
        ordering = np.asarray(ordering)
        if (ordering.dtype.kind not in "iuf" or ordering.shape != (n,)
                or not np.array_equal(np.sort(ordering), perm)):
            raise InputError(f"ordering must be a permutation of 0..{n - 1}")
        perm = ordering.astype(np.intp)
    return _screen(data, q, variant, [perm], alpha)[0]


def _screen(data, q, variant, perms, alpha):
    """Every ordering's result from orderings x steps arrays: one check over
    all steps, in their C order, which is a step-by-step run's (ordering by
    ordering, step by step; variance floor, then dispersion), then one
    aggregate along the rows and one normal calibration."""
    n, steps = data.n, data.n - q
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    ks, ms = _select_steps(data.predictors, perms,
                           _selection_weights(data.x, data.delta, perms, q, n - 1), q)
    sig2, raws, u_var = (np.empty(ks.shape) for _ in range(3))
    (_full_sample_steps if variant == "full" else _prefix_steps)(
        data, km, y, perms, ks, q, sig2, raws, u_var)
    sigmas = np.sqrt(np.maximum(sig2, 0.0))

    def where(c):
        return f" in ordering {c // steps} at prefix size {q + c % steps}"

    _raise_first(
        _variance_floor(u_var.ravel(), ks.ravel(), where),
        (~(sigmas.ravel() >= EPS_SIGMA), lambda c: DegeneracyError(
            f"influence dispersion {sigmas.flat[c]:.3g} below {EPS_SIGMA}{where(c)} "
            f"(predictor {ks.flat[c]})")),
    )

    # each row is contiguous, so its sums are the pairwise sums of a 1-D row
    sigma_bar = steps / np.sum(1.0 / sigmas, axis=1)
    weights = sigma_bar[:, None] / sigmas
    increments = weights * ms * raws
    s_star = increments.mean(axis=1)
    ci_low, ci_high, statistic, p = normal_interval(s_star, sigma_bar, steps, alpha)
    for rows in (ks, ms, sigmas, weights, increments):
        rows.flags.writeable = False  # each result's arrays are rows of these
    return tuple(
        StabilizedResult(
            s_star=float(s_star[r]), sigma_bar=float(sigma_bar[r]), k=ks[r], m=ms[r],
            sigma=sigmas[r], weight=weights[r], increment=increments[r], ci_low=float(ci_low[r]),
            ci_high=float(ci_high[r]), statistic=float(statistic[r]), p_value=float(p[r]),
            q_n=q, variant=variant, n=n, alpha=alpha)
        for r in range(len(perms)))


def _full_sample_steps(data, km, y, perms, ks, q, sig2, raws, u_var):
    """Fill the orderings x steps (sig2, raws, u_var) from full-sample
    nuisances: each distinct selected predictor is fitted once, in the
    column blocks of ``onestep._over_blocks``, and a step at prefix size j
    reads its fixed influence values in the ordering, their second central
    moment over rows :j and row j."""
    distinct = np.unique(ks)
    if_values = np.empty((data.n, len(distinct)))
    psi, var = np.empty(len(distinct)), np.empty(len(distinct))

    def step(kernel, cols):
        cols = slice(cols.start, cols.stop)
        bundle, ipw, car = kernel.influence(data.predictors[:, distinct[cols]])
        np.subtract(ipw, car, out=if_values[:, cols])
        psi[cols] = plugin_slope(bundle)
        var[cols] = bundle.u_var

    with np.errstate(all="ignore"):  # a floored column is raised at its first step
        _over_blocks(len(distinct), lambda width: _Kernel(data.x, data.delta, y, km, width), step)

    j = np.arange(q, q + ks.shape[1])
    for r, perm in enumerate(perms):
        col = np.searchsorted(distinct, ks[r])
        # one ordering's columns at a time: all at once would be R x distinct
        own, local = np.unique(col, return_inverse=True)
        values = if_values[np.ix_(perm, own)]
        cs = np.cumsum(values, axis=0)
        csq = np.cumsum(values * values, axis=0)
        # float_power squares with C pow, as a float64 scalar's ** 2 does; an
        # array's ** 2 is a multiply, which can differ in the last bit
        sig2[r] = csq[j - 1, local] / j - np.float_power(cs[j - 1, local] / j, 2)
        raws[r] = psi[col] + values[j, local]
        u_var[r] = var[col]


def _prefix_steps(data, km, y, perms, ks, q, sig2, raws, u_var):
    """Fill the orderings x steps (sig2, raws, u_var): at prefix size j, the
    selected predictor's nuisances fitted on the ordering's first j rows, its
    influence values there and at row j."""
    with np.errstate(all="ignore"):  # a floored fit is raised at its step
        for r, perm in enumerate(perms):
            xp, dp, yp = data.x[perm], data.delta[perm], y[perm]
            for j, k in enumerate(ks[r], start=q):
                u = data.predictors[perm[:j + 1], k:k + 1]
                kernel = _Kernel(xp[:j + 1], dp[:j + 1], yp[:j + 1], km, 1, fit_rows=j)
                bundle, ipw, car = kernel.influence(u)
                if_values = (ipw - car)[:, 0]
                sig2[r, j - q] = if_values[:j].var()
                raws[r, j - q] = float(plugin_slope(bundle)[0]) + float(if_values[j])
                u_var[r, j - q] = bundle.u_var[0]


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
    _instance("data", data, SurvivalDataset)
    orderings, seed = _integer("orderings", orderings, 1), _integer("seed", seed)
    q, alpha = _check_settings(data.n, q_n, variant, alpha)
    perms = [stream(seed, r).permutation(data.n) for r in range(orderings)]
    results = _screen(data, q, variant, perms, alpha)

    p_values = tuple(r.p_value for r in results)
    best_index, min_p, adjusted_p, reject = bonferroni(p_values, alpha)
    return MultiOrderingResult(
        results=results, p_values=p_values, min_p=min_p, adjusted_p=adjusted_p,
        best_index=best_index, reject=reject, alpha=alpha, seed=seed,
    )
