"""Stabilized sequential screen over growing data prefixes.

The data are processed in a (usually random) order.  For each prefix size j
from q_n to n-1 the most associated predictor is selected from the prefix
alone, a single-observation one-step increment is evaluated at the next
observation, and the increments are combined with inverse-dispersion
weights.  The resulting statistic admits a standard normal calibration,
which is what makes screens over very large predictor counts feasible.

Every per-step quantity is an array.  The selection weights
w_j = (y_j - mean(y_j)) / j depend on the ordering and the prefix censoring
fit, never on the predictors.  An ordering's weights, one n x (n - q_n)
matrix, come from all its prefix Kaplan-Meier fits at once, in a few
full-array passes over a frame built once per screen.  A prefix mean sums
[0.0, y[:j]] by reduceat, which is y[:j].sum() bit for bit.  The orderings
are selected in consecutive groups, each as many orderings as U's own bytes
hold selection buffers for (the float64 weights, their float32 copy and the
float32 screening products) and at least one, so these take no more memory
than U or one ordering's buffers, whichever is larger.  Selection for every
step of a group's orderings is one pass over the predictors in column
blocks, and a running maximum per step carries the selection.  One float64
matrix product per ordering and block gives every step's slope numerators:
in the first block, of all its columns.  From then on a float32 screen
certifies which columns can still reach a step's near-tie cut: one float32
product of the group's stacked weights bounds every numerator, and a few
float32 checkpoint prefix sums bound every prefix variance from below.  Only
the columns left are gathered for that float64 product and get the exact
cumulative prefix moments; near-tied candidates are re-evaluated one column
at a time, so a column's slot in a product decides nothing.  The increments
use the full-sample censoring fit and either prefix ("prefix" variant,
refitted at each step) or full-sample ("full" variant) regression moments.  With
full-sample moments each distinct selected predictor is fitted once, in
column blocks, and a step reads its fixed influence values: their
dispersion over the prefix by cumulative sums, and the value at the next row.
From selection to the results the steps are orderings x steps arrays, so one
check, one inverse-dispersion aggregate and one normal calibration serve all.
"""

import math
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
    """Recommended smallest prefix size: half the sample, and at least 2."""
    return max(2, n // 2)


class _Weights:
    """Selection weights of the prefix sizes first..last, one ordering at a time.

    The frame holds what every ordering shares: the censoring times, each
    row's G(x-) slot, the staircase mask, the reduceat segments and one
    steps x (n + 1) work buffer in ordered layout.  fill() writes one
    ordering's weights into the caller's buffer; column i of its n x steps
    result holds w = (y - mean(y)) / j for prefix size j = first + i at the
    data rows perm[:j], and 0 at the other rows; y are the IPCW responses of
    the prefix under the prefix's own censoring fit.  Censoring and at-risk
    counts of every prefix at the sample's censoring times are cumulative
    sums over the ordered rows.  A time with no censoring in a prefix has
    hazard 0 and contributes the exact factor 1.0, so each prefix's G equals
    fit_censoring_km and survival_at on that prefix, bit for bit.  At an
    event x of a prefix of j rows, j G(x-) >= Y(x) >= 1, so every response is
    finite and needs no floor.
    """

    def __init__(self, x, delta, first, last):
        n, steps = len(x), last - first + 1
        self.x, self.delta, self.first, self.last = x, delta, first, last
        self.sizes = np.arange(first, last + 1, dtype=np.float64)
        self.times = np.unique(x[delta == 0])
        # work column 0 is a row with response 0.0 / G(-inf) = 0.0 / 1.0, and
        # columns 1..n are the data rows in the ordering
        self.x0 = np.concatenate(([0.0], x))
        # each row's G(x-) column
        self.slots = np.concatenate(([0], np.searchsorted(self.times, x, side="left")))
        self.outside = np.arange(n + 1) > self.sizes[:, None]  # row i: the columns past prefix i
        # reduceat over row i's columns 0..j sums [0.0, y[:j]]; the trailing 0.0
        # keeps the end index of the last segment in range when j = n
        self.work = np.zeros(steps * (n + 1) + 1)
        self.w = self.work[:-1].reshape(steps, n + 1)
        starts = np.arange(steps) * (n + 1)
        self.segments = np.column_stack((starts, starts + np.arange(first + 1, last + 2))).ravel()

    def fill(self, perm, out):
        """Ordering ``perm``'s weights written into the C-order steps x n
        ``out``; returns its transpose, the n x steps matrix."""
        first, last, times, w = self.first, self.last, self.times, self.w
        xp, dp = self.x[perm], self.delta[perm]
        cols = np.concatenate(([0], perm + 1))
        survival = np.empty((len(w), len(times) + 1))
        survival[:, 0] = 1.0
        hazard = _prefix_counts((dp[:, None] == 0) & (xp[:, None] == times), first, last,
                                survival[:, 1:])
        at_risk = _prefix_counts(xp[:, None] >= times, first, last, np.empty(hazard.shape))
        # censored rows are at risk, so a time with no row at risk has 0 / 1
        hazard /= np.maximum(at_risk, 1.0, out=at_risk)
        np.cumprod(np.subtract(1.0, hazard, out=hazard), axis=1, out=hazard)

        np.take(survival, self.slots[cols], axis=1, out=w, mode="clip")
        # columns past a prefix may hold inf or nan; only the staircase is read
        with np.errstate(all="ignore"):
            np.divide(self.x0[cols], w, out=w)
            w[:, 1 + np.flatnonzero(dp == 0)] = 0.0
            means = np.add.reduceat(self.work, self.segments)[::2] / self.sizes
            w -= means[:, None]
            w /= self.sizes[:, None]
        w[self.outside] = 0.0
        np.take(w, np.argsort(perm) + 1, axis=1, out=out, mode="clip")
        return out.T


def _prefix_counts(indicator, first, last, out):
    """Column sums of the (n x T) indicator over rows :j for j = first..last,
    written into the steps x T float64 ``out``; the sums are exact integers.
    A cumsum of the 0/1 rows cast to float64 on the fly would allocate two
    such tables, so the rows are copied into ``out`` and summed there."""
    out[0] = indicator[:first].sum(axis=0)
    out[1:] = indicator[first:last]
    return np.cumsum(out, axis=0, out=out)


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
        re-evaluated with exactly rounded numerators, and the first maximum
        (smallest index) wins.  A blocked product, of the full block or of
        gathered columns, can differ in the last ulp between column slots
        and between BLAS kernels; this re-check is why those bits decide no
        selection."""
        steps = len(self.best)
        ks = np.zeros(steps, dtype=np.intp)
        ms = np.ones(steps, dtype=np.int64)
        order = np.lexsort((self.col, self.step))
        step, col, slope, var = self.step[order], self.col[order], self.slope[order], self.var[order]
        counts = np.bincount(step, minlength=steps)
        single = counts[step] == 1
        ks[step[single]] = col[single]
        ms[step[single]] = np.where(slope[single] > 0.0, 1, -1)
        starts = np.concatenate(([0], np.cumsum(counts)))
        for i in np.flatnonzero(counts > 1):
            j = first + i
            cand = slice(starts[i], starts[i + 1])
            terms = np.concatenate(_two_product(U[np.ix_(perm[:j], col[cand])],
                                                weights[perm[:j], i, None]))
            exact = np.array([math.fsum(t) for t in terms.T.tolist()]) / var[cand]
            pos = int(np.argmax(np.abs(exact)))
            s = float(exact[pos])
            if s != 0.0:
                ks[i], ms[i] = col[cand][pos], (1 if s > 0 else -1)
        return ks, ms


_SPLIT = 2.0 ** 27 + 1  # Veltkamp's splitter: a float64 is the sum of two 26-bit halves


def _two_product(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly (Dekker), where no
    product or split underflows or overflows."""
    p = a * b
    a1 = a * _SPLIT
    a1 -= a1 - a
    b1 = b * _SPLIT
    b1 -= b1 - b
    a2, b2 = a - a1, b - b1
    return p, a2 * b2 - (((p - a1 * b1) - a2 * b1) - a1 * b2)


# steps per window of the certified bound: a window of L steps at prefix sizes
# from c on loses at most a factor c / (c + L - 1) of the variance, 6% at
# c = 250, while the checkpoint product stays about 2 / L of the slope product
_WINDOW = 16
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_SINGLE_ROUNDOFF = np.finfo(np.float32).eps / 2
# float32's smallest normal number: a float32 result below it is off by at
# most this much, also where the CPU flushes subnormals to zero or reads them
# as zero
_SINGLE_UNDERFLOW = 2.0 ** -126
# the float32 screen takes a block whose values, and a group whose weights,
# are at most _SINGLE_RANGE in size, with n at most _SINGLE_ROWS: then no
# float32 cast, product or sum can overflow (n 2**51 2**51 < 2**128), and the
# float32 error factors below stay under 1/4
_SINGLE_RANGE = 2.0 ** 50
_SINGLE_ROWS = 2 ** 20
# covers the float64 roundings of the screen's error terms, each a few dozen
_ROUNDING = 1.0 + 2.0 ** -20


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
    """The float32 screen of a group of orderings: per column block, the
    columns whose float64 slope can reach an ordering's cut at some step.

    Built once per group, at the first block where a cut is nonzero, it holds
    the group's weights as one float32 stack, every ordering's checkpoint
    indicator, and per step the error terms of a float32 numerator.  lower()
    casts a block to float32 once and centres it; one float32 product of the
    indicator gives every ordering's checkpoint sums, and survivors() one
    float32 product of the stack every ordering's screening numerators.

    Window w covers the prefix sizes c..e, c = points[w] and e = ends[w]; its
    bound comes from the prefix sums of the centred column and of its square
    at c and at next = points[w + 1], which is e + 1 except for the last
    window, whose next is n: the last sums are over the whole column.
    """

    def __init__(self, perms, weights, first, steps, width):
        n, count = len(perms[0]), len(perms)
        self.windows = np.arange(0, steps, _WINDOW)  # each window's first step
        self.points = np.append(first + self.windows, n)
        self.ends = np.minimum(self.points[:-1] + _WINDOW - 1, first + steps - 1)
        self.steps = steps
        self.stacked = None  # None: the weights are outside float32's range
        size = max(max(w.max(), -w.min()) for w in weights)
        if n > _SINGLE_ROWS or not size <= _SINGLE_RANGE:
            return
        self.stacked = np.empty((count * steps, n), dtype=np.float32)
        for r, w in enumerate(weights):
            self.stacked[r * steps:(r + 1) * steps] = w.T
        # n x (orderings x points), in Fortran order, which BLAS multiplies fastest here
        self.indicator = np.asfortranarray(np.concatenate(
            [np.argsort(perm) < self.points[:, None] for perm in perms]).T, dtype=np.float32)
        self.ones = np.ones(n, dtype=np.float32)
        self.centred = np.empty((2 * width, n), dtype=np.float32).T  # the block, then its square
        self.sums = np.empty((2 * width, self.indicator.shape[1]), dtype=np.float32)
        self.products = np.empty((count * steps, width), dtype=np.float32)

        # a float32 numerator's error terms per step (see survivors())
        u, v, t = _UNIT_ROUNDOFF, _SINGLE_ROUNDOFF, _SINGLE_UNDERFLOW
        g32, g64, root = (n + 5) * v / (1 - (n + 5) * v), n * u / (1 - n * u), np.sqrt(n)
        norms = np.sqrt([np.einsum("nj,nj->j", w, w) for w in weights])
        self.terms = _ROUNDING * np.stack((
            (g32 + g64) * norms + 3 * root * t,
            (v + 2 * g64) * root * norms + np.abs([w.sum(axis=0) for w in weights]),
            4 * root * t * norms + 3 * n * t,
        ))

        # the constants of lower(), per window where they vary; derived there
        c, e = self.points[:-1, None] * 1.0, self.ends[:, None] * 1.0
        self.eta = 2.0 * (n + 3) * v
        self.nu = 4 * n * t
        self.head_factor = (1.0 - self.eta) / e * (1.0 - 64 * u)
        self.span = e - c
        self.sum_error = 4.0 * self.eta ** 2 * c  # (2 eta)**2 c
        self.drift_factor = (1.0 + 32 * u) / c
        self.inverse_c = _ROUNDING / c
        self.kernel_error = _ROUNDING * 16.0 * n * u
        self.root_n = root

    def lower(self, block):
        """orderings x windows x b lower bounds on the computed prefix variances
        of ``block``'s columns, or None when the block or the group's weights
        are outside float32's range.  Leaves the centred float32 block, and
        the column terms survivors() reads, in place.

        Notation: u is float64's unit roundoff and v = 2**-24 float32's, t =
        2**-126, g(k) = k v / (1 - k v), x a column's values in the ordering,
        x' = fl32(x) its float32 copy, a a float32 mean of x' (any float32
        shift will do) and z = fl32(x' - a) the centred float32 column.
        S1_j, S2_j are the exact sums of z and z**2 over the first j rows;
        V_j(y) is the prefix variance of y over rows :j.

        1. Exact arithmetic.  A variance is shift-invariant, so
           V_j(z) = S2_j / j - (S1_j / j)**2.  For c <= j <= e, S2_j >= S2_c,
           and by Cauchy-Schwarz over the j - c <= e - c added rows,
           |S1_j - S1_c| <= sqrt((e - c) (S2_next - S2_c)), hence
           V_j(z) >= S2_c / e - ((|S1_c| + sqrt((e - c) (S2_next - S2_c))) / c)**2.
        2. The checkpoint sums, float32 products of the 0/1 indicator.  A
           square fl32(z**2) carries one rounding; below float32's normal
           range a result, or an input the CPU reads as zero, is off by at
           most t.  A dot product of n terms with 0/1 weights is off by at
           most g(n) times the sum of the terms' magnitudes, in any summation
           order, plus t per term for each of these.  So with
           eta = 2 (n + 3) v >= g(n + 1) and nu = 4 n t, the computed sums
           satisfy |^S1_c - S1_c| <= g(n) sqrt(c S2_c) + nu and
           |^S2_c - S2_c| <= eta S2_c + nu.  The bound of 1 then holds with
           S2_c >= (^S2_c - nu) (1 - eta),
           |S1_c| <= |^S1_c| + 2 eta sqrt(c (^S2_c + nu)) + nu and
           S2_next - S2_c <= max(^S2_next - ^S2_c, 0) + 3 eta ^S2_next + 4 nu,
           for eta <= 1/4, which n <= _SINGLE_ROWS gives.
        3. From z to x.  sqrt(V_j) is a seminorm and V_j(x) = V_j(x - a), so
           sqrt(V_j(x)) >= sqrt(V_j(z)) - |z - (x - a)| / sqrt(c), |.| the
           2-norm over all n rows; squaring, with sqrt(V_j(z)) <= Z / sqrt(c),
           V_j(x) >= V_j(z) - 2 Z |z - (x - a)| / c.  Here Z =
           sqrt((^S2_n + nu) (1 + 2 eta)) >= |z|, from the last checkpoint.
           Each z_i - (x_i - a) is the rounding of the cast, of at most
           v |x_i| + t, plus that of the subtraction, at most
           v |z_i| / (1 - v) + t, so
           |z - (x - a)| <= 3 v D + v sqrt(n) |a| + 2 sqrt(n) t, where
           D = (Z + sqrt(n) (v |a| + 2 t)) (1 + 3 v) >= |x - a|.
        4. The exact pass (_prefix_variance) computes V_j(x) as m2 - m1**2 from
           uncentred sums of j terms in some order; with m2_j = sum(x**2) / j
           it is off by at most g64(3 j + 6) m2_j, g64 the g of float64's u,
           plus far less than nu for float64's own underflow, and
           m2_j <= 2 |x - a|**2 / c + 2 a**2 <= 2 D**2 / c + 2 a**2, so by at
           most 16 n u (D**2 / c + a**2) + nu.
        5. Evaluating the bound in float64 takes at most a dozen roundings per
           term of 2, which the factors 1 - 64 u and (1 + 32 u)**2 >= 1 + 64 u
           cover, and a few per term of 3 and 4, which _ROUNDING covers.

        So with A = (^S2_c - nu) (1 - eta) (1 - 64 u) / e,
        B = (|^S1_c| + 2 eta sqrt(c (^S2_c + nu)) + nu + sqrt((e - c) D'))
        (1 + 32 u) / c, D' = max(^S2_next - ^S2_c, 0) + 3 eta ^S2_next + 4 nu
        and M = (2 Z (3 v D + v sqrt(n) |a| + 2 sqrt(n) t) + 16 n u D**2) / c
        + 16 n u a**2 + nu, lb = A - B**2 - M is at most every computed
        variance of the window.
        Centring keeps lb close to the variance for columns with large means;
        a near-constant column, or one whose squares underflow float32, gets
        lb <= 0.
        """
        if self.stacked is None or not max(block.max(), -block.min()) <= _SINGLE_RANGE:
            return None
        n, b = block.shape
        k = len(self.points)
        centred = self.centred[:, :2 * b]
        single = centred[:, :b]
        np.copyto(single, block, casting="same_kind")
        self.offset = np.matmul(self.ones, single)  # float32, any shift will do
        self.offset /= n
        single -= self.offset
        np.square(single, out=centred[:, b:])
        sums = np.matmul(centred.T, self.indicator, out=self.sums[:2 * b])
        sums = sums.T.astype(np.float64, order="C").reshape(-1, k, 2 * b)
        s1, s2, s2_next = sums[:, :-1, :b], sums[:, :-1, b:], sums[:, 1:, b:]

        u, v, t, nu, root = _UNIT_ROUNDOFF, _SINGLE_ROUNDOFF, _SINGLE_UNDERFLOW, self.nu, self.root_n
        offset = np.abs(self.offset, dtype=np.float64)
        z = np.sqrt((sums[:, -1:, b:] + nu) * (1.0 + 2.0 * self.eta)) * _ROUNDING  # Z
        self.norm = (z + root * (v * offset + 2 * t)) * ((1.0 + 3.0 * v) * _ROUNDING)  # D
        carry = z * (3.0 * v * self.norm + v * root * offset + 2 * root * t)  # M, per 1 / c
        carry *= 2.0
        carry += self.kernel_error * np.square(self.norm)

        spread = np.subtract(s2_next, s2)  # sqrt((e - c) D')
        np.maximum(spread, 0.0, out=spread)
        spread += 3.0 * self.eta * s2_next
        spread += 4.0 * nu
        spread *= self.span
        np.sqrt(spread, out=spread)
        drift = np.sqrt(self.sum_error * (s2 + nu))  # B
        drift += np.abs(s1) + nu
        drift += spread
        drift *= self.drift_factor
        lb = np.subtract(s2, nu) * self.head_factor  # A - B**2 - M
        lb -= np.square(drift, out=drift)
        lb -= carry * self.inverse_c
        lb -= self.kernel_error * np.square(offset) + nu
        return lb

    def survivors(self, block, cuts):
        """Per ordering, a windows x b mask of where a column of ``block`` may
        reach the ordering's ``cuts`` row: False only in a window where its
        float64 slope provably stays below the cut at every step.  None for an
        ordering whose cut is 0 at every step, and for every ordering when
        the block is outside float32's range, so that the unpruned pass runs.

        Notation as in lower(), with w the float64 weights of a step, w' =
        fl32(w), N the float32 product w'^T z and ^N it computed.  A float64
        product of w and x, in any summation order, is
        w^T x = w^T (x - a) + a sum(w) up to g64(n) |w| (D + sqrt(n) |a|)
        and float64's underflow.  |^N - w'^T z| <= g(n) |w'| Z + 2 n t
        + sqrt(n) t (|w'| + Z), for the underflows and the inputs a CPU may
        read as zero, and w'^T z - w^T (x - a) comes from the cast of w and
        step 3's |z - (x - a)|; with |.| <= |w| D and sum(w) computed within
        g64(n) sqrt(n) |w|, the float64 numerator is at most
        |^N| + alpha D + beta |a| + tau, where
        alpha = (g(n + 5) + g64(n)) |w| + 3 sqrt(n) t,
        beta = (v + 2 g64(n)) sqrt(n) |w| + |sum(w)| and
        tau = 4 sqrt(n) t |w| + 3 n t, each times _ROUNDING.

        A column's window is dropped when its largest
        (|^N| + alpha D + beta |a| + tau) / cut over the window's steps is
        below lb: then |numerator| / var < cut at each step.  Each term's
        window maximum is taken after dividing by the cut.  |^N| / cut is
        formed in float32 from 1 / cut rounded up, off by at most v or t,
        which the factor 1 + 2**-21 and the added 2 t cover; against the
        float64 roundings of the other terms and of the computed slope, the
        test is against lb (1 - 16 u).  A step whose cut is 0 keeps its
        window for every column.
        """
        lb = self.lower(block)
        if lb is None:
            return [None] * len(cuts)
        count, steps, b = len(cuts), self.steps, block.shape[1]
        inverse = np.divide(1.0, cuts, out=np.full(cuts.shape, np.inf), where=cuts > 0.0)
        # rounded up into float32, flushing CPUs included; inf where it would overflow
        single = inverse * (1.0 + 2.0 ** -22) + _SINGLE_UNDERFLOW
        single = np.where(single <= np.finfo(np.float32).max, single, np.inf).astype(np.float32)
        ratio = np.matmul(self.stacked, self.centred[:, :b], out=self.products[:, :b])
        np.abs(ratio, out=ratio)
        ratio *= single.reshape(-1, 1)
        ratio = ratio.reshape(count, steps, b)
        full = steps // _WINDOW
        peak = np.empty((count, len(self.windows), b), dtype=np.float32)
        np.max(ratio[:, :full * _WINDOW].reshape(count, full, _WINDOW, b), axis=2,
               out=peak[:, :full])
        if full < len(self.windows):
            np.max(ratio[:, full * _WINDOW:], axis=1, out=peak[:, full])
        # a zero term at a step whose cut is 0 gives nan, which keeps every
        # column, as inf does
        alpha, beta, tau = np.maximum.reduceat(self.terms * inverse, self.windows, axis=2)
        left = peak.astype(np.float64)
        left *= 1.0 + 2.0 ** -21
        left += alpha[:, :, None] * self.norm
        left += beta[:, :, None] * np.abs(self.offset, dtype=np.float64)
        left += tau[:, :, None] + 2 * _SINGLE_UNDERFLOW
        kept = ~(left < lb * (1.0 - 16 * _UNIT_ROUNDOFF))
        return [keep if cut.any() else None for keep, cut in zip(kept, cuts)]


def _select_steps(U, perms, weights, first):
    """Selected (ks, ms) of every prefix step of every ordering, orderings x steps.

    ``weights[r]`` is ordering r's n x steps matrix, its column i being
    prefix size first + i, as _Weights.fill returns it.  U is read once per
    call, which is once per group of orderings in _select_orderings, in
    blocks of BLOCK_COLUMNS columns that every ordering visits while the
    block is in cache; no permuted copy of U is made.  One float64 matrix
    product per ordering and block gives every step's slope numerators of
    its source columns, which also get the exact prefix moments
    (_prefix_variance).  The source is the whole block until the ordering
    has a nonzero best, and where the block or the group's weights are
    outside float32's range.  Otherwise the block is screened in float32
    (_WindowBound), which drops a column in a window where its float64
    slope, in any summation order, provably stays below the near-tie cut at
    every step; the source is the columns left in some window, gathered.  A
    dropped slope is below the cut before the block, so it could be neither
    a step's best nor a near-tie candidate; _RunningSelection.finish
    re-checks near-ties, so a kept column's slot in the product decides
    nothing.
    """
    n, p = U.shape
    steps = weights[0].shape[1]
    width = min(p, BLOCK_COLUMNS)
    permuted, gathered = np.empty((width, n)), np.empty((width, n))
    s1 = np.empty(steps * width)  # viewed as steps x m for the m columns at hand
    s2 = np.empty(steps * width)
    slopes = np.empty((steps, width))
    running = [_RunningSelection(steps) for _ in perms]
    bound = None  # built at the first block where a cut is nonzero
    for c0 in range(0, p, BLOCK_COLUMNS):
        block = U[:, c0:c0 + BLOCK_COLUMNS]
        b = block.shape[1]
        cuts = np.array([run.cut() for run in running])
        kept = [None] * len(perms)
        if cuts.any():
            with np.errstate(all="ignore"):  # float32 underflows, which the bound covers
                if bound is None:
                    bound = _WindowBound(perms, weights, first, steps, width)
                kept = bound.survivors(block, cuts)
        for perm, w, run, windows in zip(perms, weights, running, kept):
            if windows is None:
                cols, source = np.arange(b), block.T
            else:
                cols = np.flatnonzero(windows.any(axis=0))
                if len(cols) == 0:
                    continue
                # "clip" lets take write into `out` directly; every index is valid
                source = np.take(block.T, cols, axis=0, out=gathered[:len(cols)], mode="clip")
            m = len(cols)
            slope = np.matmul(w.T, source.T, out=slopes[:, :m])
            m1, m2 = s1[:steps * m].reshape(steps, m), s2[:steps * m].reshape(steps, m)
            # the columns' rows in the ordering, one predictor per row
            rows = np.take(source, perm, axis=1, out=permuted[:m], mode="clip")
            var = _prefix_variance(rows, first, steps, m1, m2)
            floored = var < EPS_VAR
            np.divide(slope, var, out=slope, where=~floored)
            slope[floored] = 0.0
            run.update(c0 + cols, slope, var)
    ks, ms = zip(*(run.finish(U, perm, w, first) for perm, w, run in zip(perms, weights, running)))
    return np.array(ks), np.array(ms)


def _select_orderings(data, perms, first, last):
    """Selected (ks, ms) of the prefix sizes first..last of every ordering,
    orderings x steps.

    The orderings are selected in consecutive groups, each of as many
    orderings as U's own bytes hold selection buffers for (all of them when
    U is at least R sets): an ordering's float64 weights, their float32 copy
    in the screen's stack and its float32 screening products.  Every group's
    weights are filled into one buffer made once.  An ordering's selection
    does not depend on the orderings that share its group, so every group
    size gives the same bits.
    """
    U, n, steps = data.predictors, data.n, last - first + 1
    frame = _Weights(data.x, data.delta, first, last)
    per_ordering = steps * (12 * n + 4 * min(data.p, BLOCK_COLUMNS))
    group = min(len(perms), max(1, U.nbytes // per_ordering))
    buffer = np.empty((group, steps, n))
    ks = np.empty((len(perms), steps), dtype=np.intp)
    ms = np.empty((len(perms), steps), dtype=np.int64)
    for g in range(0, len(perms), group):
        chunk = perms[g:g + group]
        weights = [frame.fill(perm, out) for perm, out in zip(chunk, buffer)]
        ks[g:g + group], ms[g:g + group] = _select_steps(U, chunk, weights, first)
    return ks, ms


def select_predictor(data: SurvivalDataset, j: Optional[int] = None):
    """Most associated predictor (index, sign) from the first j rows."""
    _instance("data", data, SurvivalDataset)
    j = _integer("j", data.n if j is None else j, 2, data.n)
    ks, ms = _select_orderings(data, [np.arange(data.n)], j, j)
    return int(ks[0, 0]), int(ms[0, 0])


def _check_settings(n: int, q_n: Optional[int], variant: str, alpha: float):
    """The checked (q_n, alpha); q_n defaults to default_qn(n)."""
    if n < 3:  # no q_n in [2, n - 1]
        raise InputError(f"the stabilized screen needs at least 3 observations, got {n}")
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
    ordering, step by step; variance floor, overflow, then dispersion), then
    one aggregate along the rows and one normal calibration."""
    n, steps = data.n, data.n - q
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    ks, ms = _select_orderings(data, perms, q, n - 1)
    sig2, raws, u_var = (np.empty(ks.shape) for _ in range(3))
    (_full_sample_steps if variant == "full" else _prefix_steps)(
        data, km, y, perms, ks, q, sig2, raws, u_var)
    sigmas = np.sqrt(np.maximum(sig2, 0.0))

    def where(c):
        return f" in ordering {c // steps} at prefix size {q + c % steps}"

    _raise_first(
        _variance_floor(u_var.ravel(), ks.ravel(), where),
        (~(np.isfinite(sigmas) & np.isfinite(raws)).ravel(), lambda c: DegeneracyError(
            f"influence values of predictor {ks.flat[c]} overflow float64{where(c)}")),
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
        with np.errstate(all="ignore"):  # a floored column is raised at its first step
            bundle, ipw, car = kernel.influence(data.predictors[:, distinct[cols]])
            np.subtract(ipw, car, out=if_values[:, cols])
            psi[cols] = plugin_slope(bundle)
        var[cols] = bundle.u_var

    _over_blocks(len(distinct), lambda width: _Kernel(data.x, data.delta, y, km, width), step)

    j = np.arange(q, q + ks.shape[1])
    with np.errstate(all="ignore"):  # so is a step whose values are not finite
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
    permutation.  Selection reads U once per group of orderings whose
    weights together fit in U's size, so once when U is at least R weight
    matrices.
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
