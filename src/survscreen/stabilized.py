"""Stabilized sequential screen over growing data prefixes.

The data are processed in a (usually random) order.  For each prefix size j
from q_n to n-1 the most associated predictor is selected from the prefix
alone, a single-observation one-step increment is evaluated at the next
observation, and the increments are combined with inverse-dispersion
weights.  The resulting statistic admits a standard normal calibration,
which is what makes screens over very large predictor counts feasible.

Selection touches the predictors only through the p weighted-response
slopes of each prefix.  Their weights w_j = (y_j - mean(y_j)) / j depend on
the ordering and the prefix censoring fit, never on the predictors, so the
weights of every prefix step of an ordering form one n x (n - q_n) matrix,
built from all prefix Kaplan-Meier fits at once.  Selection for every step
of every ordering is then one pass over the predictor matrix in column
blocks: per block and ordering, one matrix-matrix product gives the slope
numerators of all steps, cumulative sums over the permuted block give the
prefix moments, and a running maximum per step carries the selection from
block to block.  The censoring fit used for selection is always the prefix
fit; the nuisances entering the increments use the full-sample censoring
fit, and either prefix ("prefix" variant) or full-sample ("full" variant)
regression moments.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import stream
from .censoring import _weighted_response, fit_censoring_km, survival_at
from .dataset import SurvivalDataset
from .errors import DegeneracyError, InputError
from .onestep import EPS_SIGMA, influence_block, plugin_slope, two_sided_p, z_value
from .residual_life import EPS_VAR

VARIANTS = ("prefix", "full")

# predictor columns per selection block: a block, its permuted copy and the
# per-step slope arrays stay in cache while every ordering visits the block
SELECT_BLOCK = 256


@dataclass(frozen=True)
class PrefixTrace:
    """One prefix step: selection, dispersion, weight, weighted increment."""

    j: int
    k: int
    m: int
    sigma: float
    weight: float
    increment: float


@dataclass(frozen=True)
class StabilizedResult:
    """Stabilized estimate with its per-step trace and normal calibration."""

    s_star: float
    sigma_bar: float
    traces: tuple
    ci_low: float
    ci_high: float
    p_value: float
    q_n: int
    variant: str
    n: int
    alpha: float
    ordering_seed: Optional[int] = None

    @property
    def statistic(self) -> float:
        """Standardized statistic sqrt(n - q_n) * estimate / sigma_bar."""
        return math.sqrt(self.n - self.q_n) * self.s_star / self.sigma_bar

    def selection_counts(self) -> dict:
        counts = {}
        for t in self.traces:
            counts[t.k] = counts.get(t.k, 0) + 1
        return counts

    def modal_k(self) -> int:
        counts = self.selection_counts()
        best = max(counts.values())
        return min(k for k, c in counts.items() if c == best)


def default_qn(n: int) -> int:
    """Recommended smallest prefix size: half the sample."""
    return n // 2


def _selection_weights(x, delta, perm, first, last):
    """Selection weights of the prefix sizes first..last of one ordering.

    Column i of the returned (n x (last - first + 1)) matrix holds
    w = (y - mean(y)) / j for prefix size j = first + i at the data rows
    perm[:j], and 0 at the other rows; y are the IPCW responses of the prefix
    under the prefix's own censoring fit.  Censoring and at-risk counts of
    every prefix at the sample's censoring times are cumulative sums over
    the ordered rows.  A time with no censoring in a prefix has hazard 0 and
    contributes the exact factor 1.0, so each prefix's G equals
    fit_censoring_km and survival_at on that prefix, bit for bit.

    The second value is None, or (i, error) for the first prefix whose
    responses fail the EPS_G check; the columns from i on are left 0.
    """
    xp, dp = x[perm], delta[perm]
    ends = np.arange(first - 1, last)  # last row of each prefix
    times = np.unique(x[delta == 0])
    censored = np.cumsum((dp[:, None] == 0) & (xp[:, None] == times), axis=0)[ends]
    at_risk = np.cumsum(xp[:, None] >= times, axis=0)[ends]
    hazard = np.divide(censored, at_risk, out=np.zeros(censored.shape), where=censored > 0)
    survival = np.ones((len(ends), len(times) + 1))
    np.cumprod(1.0 - hazard, axis=1, out=survival[:, 1:])
    g = survival[:, np.searchsorted(times, xp, side="left")]

    weights = np.zeros((len(x), len(ends)), order="F")
    for i, j in enumerate(range(first, last + 1)):
        try:
            yj = _weighted_response(xp[:j], dp[:j], g[i, :j])
        except DegeneracyError as exc:
            return weights, (i, exc)
        weights[perm[:j], i] = (yj - yj.mean()) / j
    return weights, None


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

    ``weights[r]`` is ordering r's matrix from _selection_weights, its column
    i being prefix size first + i.  U is read once, in blocks of
    SELECT_BLOCK columns; no permuted copy of U is made.
    """
    n, p = U.shape
    steps = weights[0].shape[1]
    sizes = np.arange(first, first + steps, dtype=np.float64)[:, None]
    width = min(p, SELECT_BLOCK)
    permuted = np.empty((width, n))
    s1 = np.empty((steps, width))
    s2 = np.empty((steps, width))
    slopes = np.empty((steps, width))
    running = [_RunningSelection(steps) for _ in perms]
    for c0 in range(0, p, SELECT_BLOCK):
        block = U[:, c0:c0 + SELECT_BLOCK]
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
    perm = np.arange(data.n)
    weights, failure = _selection_weights(data.x, data.delta, perm, j, j)
    if failure is not None:
        raise failure[1]
    (ks, ms), = _select_steps(data.predictors, [perm], [weights], j)
    return int(ks[0]), int(ms[0])


class FullSampleCache:
    """Full-sample per-predictor nuisances, shareable across orderings.

    Entries are stored in data order and permuted per ordering.
    """

    def __init__(self, data: SurvivalDataset):
        self.data = data
        self.km = fit_censoring_km(data.x, data.delta)
        self.y = _weighted_response(data.x, data.delta, survival_at(self.km, data.x))
        self._entries = {}

    def entry(self, k: int):
        ent = self._entries.get(k)
        if ent is None:
            d = self.data
            bundle, ipw, car = influence_block(
                d.predictors[:, [k]], d.x, d.delta, self.y, self.km, (k,)
            )
            ent = (float(plugin_slope(bundle)[0]), (ipw - car)[:, 0])
            self._entries[k] = ent
        return ent


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
    ordering_seed: Optional[int] = None,
    cache: Optional[FullSampleCache] = None,
) -> StabilizedResult:
    """Run the sequential screen under one ordering of the data.

    ``ordering`` is a permutation of 0..n-1 (default: identity).  ``cache``
    may carry full-sample nuisances shared across orderings of the same
    dataset ("full" variant only).
    """
    n = data.n
    q = _check_settings(n, q_n, variant)
    if ordering is None:
        perm = np.arange(n)
    else:
        perm = np.asarray(ordering, dtype=np.intp)
        if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
            raise InputError("ordering must be a permutation of 0..n-1")
    return _screen(data, q, variant, [perm], alpha, [ordering_seed], cache)[0]


def _screen(data, q, variant, perms, alpha, seeds, cache):
    """Selection for every ordering in one pass over U, then each ordering's
    step loop.  Errors surface in the order of a step-by-step run: ordering
    by ordering, step by step, a step's EPS_G check before its dispersion
    check."""
    n = data.n
    if variant == "full":
        if cache is None:
            cache = FullSampleCache(data)
        elif cache.data is not data:
            raise InputError("cache was built for a different dataset")
        km_full = cache.km
    else:
        km_full = fit_censoring_km(data.x, data.delta)

    weights, failures = zip(*(_selection_weights(data.x, data.delta, perm, q, n - 1)
                              for perm in perms))
    selections = _select_steps(data.predictors, perms, weights, q)
    return tuple(
        _ordering_estimate(data, q, variant, perm, ks, ms, failure, km_full, cache, alpha, seed)
        for perm, (ks, ms), failure, seed in zip(perms, selections, failures, seeds)
    )


def _ordering_estimate(data, q, variant, perm, ks, ms, failure, km_full, cache, alpha, seed):
    n = data.n
    if variant == "full":
        # per-ordering views of the cached entries: (psi, if values, cumsums)
        local = {}

        def step_nuisances(k, j):
            ent = local.get(k)
            if ent is None:
                psi, if_data = cache.entry(k)
                if_perm = if_data[perm]
                cs = np.concatenate(([0.0], np.cumsum(if_perm)))
                csq = np.concatenate(([0.0], np.cumsum(if_perm * if_perm)))
                ent = (psi, if_perm, cs, csq)
                local[k] = ent
            psi, if_perm, cs, csq = ent
            sig2 = csq[j] / j - (cs[j] / j) ** 2
            return sig2, psi + if_perm[j]

    else:
        xp = data.x[perm]
        dp = data.delta[perm]
        yp = _weighted_response(xp, dp, survival_at(km_full, xp))

        def step_nuisances(k, j):
            # nuisances from the first j rows, influence values there and at row j
            bundle, ipw, car = influence_block(
                data.predictors[perm[: j + 1], k:k + 1], xp[: j + 1], dp[: j + 1], yp[: j + 1],
                km_full, (k,), fit_rows=j,
            )
            if_values = (ipw - car)[:, 0]
            return float(if_values[:j].var()), float(plugin_slope(bundle)[0]) + float(if_values[j])

    steps = n - q
    sigmas = np.empty(steps)
    raws = np.empty(steps)
    for i in range(steps if failure is None else failure[0]):
        j, k = q + i, int(ks[i])
        sig2, raw = step_nuisances(k, j)
        sigma = math.sqrt(max(sig2, 0.0))
        if sigma < EPS_SIGMA:
            raise DegeneracyError(
                f"influence dispersion {sigma:.3g} below {EPS_SIGMA} at prefix size {j} "
                f"(predictor {k})"
            )
        sigmas[i], raws[i] = sigma, raw
    if failure is not None:
        raise failure[1]

    sigma_bar = steps / float(np.sum(1.0 / sigmas))
    weights = sigma_bar / sigmas
    increments = weights * ms * raws
    s_star = float(increments.mean())
    ci_low, ci_high, p = _interval(s_star, sigma_bar, steps, alpha)

    traces = tuple(
        PrefixTrace(
            j=int(q + i), k=int(ks[i]), m=int(ms[i]),
            sigma=float(sigmas[i]), weight=float(weights[i]), increment=float(increments[i]),
        )
        for i in range(steps)
    )
    return StabilizedResult(
        s_star=s_star, sigma_bar=sigma_bar, traces=traces,
        ci_low=ci_low, ci_high=ci_high, p_value=p,
        q_n=q, variant=variant, n=n, alpha=alpha, ordering_seed=seed,
    )


def _interval(s_star: float, sigma_bar: float, n_terms: int, alpha: float):
    half = z_value(alpha) * sigma_bar / math.sqrt(n_terms)
    p = float(two_sided_p(math.sqrt(n_terms) * s_star / sigma_bar))
    return s_star - half, s_star + half, p


def ci_pvalue(result: StabilizedResult, alpha: float):
    """Confidence interval and two-sided p-value at a chosen level."""
    return _interval(result.s_star, result.sigma_bar, result.n - result.q_n, alpha)


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
    results = _screen(data, q, variant, perms, alpha, range(orderings), None)

    p_values = tuple(r.p_value for r in results)
    best_index = int(np.argmin(p_values))
    min_p = p_values[best_index]
    return MultiOrderingResult(
        results=results, p_values=p_values, min_p=min_p,
        adjusted_p=min(1.0, orderings * min_p), best_index=best_index,
        reject=bool(min_p < alpha / orderings), alpha=alpha, seed=seed,
    )
