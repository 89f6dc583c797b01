"""Stabilized sequential screen over growing data prefixes.

The data are processed in a (usually random) order.  For each prefix size j
from q_n to n-1 the most associated predictor is selected from the prefix
alone, a single-observation one-step increment is evaluated at the next
observation, and the increments are combined with inverse-dispersion
weights.  The resulting statistic admits a standard normal calibration,
which is what makes screens over very large predictor counts feasible.

Per step, selection computes all p weighted-response slopes as one
matrix-vector product over the column-major predictor matrix against a
length-j weight vector, with per-predictor running sums of U and U^2
maintained incrementally across steps.  The censoring fit used for
selection is always the prefix fit; the nuisances entering the increments
use the full-sample censoring fit, and either prefix ("prefix" variant) or
full-sample ("full" variant) regression moments.
"""

import math
from concurrent.futures import ThreadPoolExecutor
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


def _select_from_prefix(U, x, delta, j, s1, s2):
    """Most associated predictor over the first j rows: one gemv for all p
    slopes, then largest |slope| with smallest-index tie-breaking.

    The blocked matrix-vector product can differ in the last ulp between
    column slots, so near-tied candidates are re-evaluated with one
    consistent per-column kernel before comparing; exact ties (duplicated or
    mirrored columns) then break to the smallest index deterministically.
    """
    km = fit_censoring_km(x[:j], delta[:j])
    yj = _weighted_response(x[:j], delta[:j], survival_at(km, x[:j]))
    w = (yj - yj.mean()) / j
    cov = U[:j].T @ w
    var = s2 / j - (s1 / j) ** 2
    floored = var < EPS_VAR
    slopes = np.where(floored, 0.0, cov / np.where(floored, 1.0, var))

    best = float(np.max(np.abs(slopes)))
    if best == 0.0:
        return 0, 1
    cand = np.flatnonzero(np.abs(slopes) >= best * (1.0 - 1e-9))
    if len(cand) > 1:
        exact = np.array(
            [0.0 if floored[k] else float(np.dot(U[:j, k], w)) / var[k] for k in cand]
        )
        pos = int(np.argmax(np.abs(exact)))
        k, s = int(cand[pos]), float(exact[pos])
    else:
        k = int(cand[0])
        s = float(slopes[k])
    if s == 0.0:
        return 0, 1
    return k, (1 if s > 0 else -1)


def select_predictor(data: SurvivalDataset, j: Optional[int] = None):
    """Most associated predictor (index, sign) from the first j rows."""
    j = data.n if j is None else j
    if j < 2:
        raise InputError(f"prefix size must be >= 2, got {j}")
    U = data.predictors
    s1 = U[:j].sum(axis=0)
    s2 = np.einsum("ij,ij->j", U[:j], U[:j])
    return _select_from_prefix(U, data.x, data.delta, j, s1, s2)


class FullSampleCache:
    """Full-sample per-predictor nuisances, shareable across orderings.

    Entries are stored in data order and permuted per ordering; concurrent
    fills of the same key are idempotent, so no locking is needed.
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
    q = default_qn(n) if q_n is None else int(q_n)
    if not 2 <= q <= n - 1:
        raise InputError(f"q_n must be in [2, n-1], got {q} for n={n}")
    if variant not in VARIANTS:
        raise InputError(f"variant must be one of {VARIANTS}, got {variant!r}")

    if ordering is None:
        perm = np.arange(n)
    else:
        perm = np.asarray(ordering, dtype=np.intp)
        if len(perm) != n or not np.array_equal(np.sort(perm), np.arange(n)):
            raise InputError("ordering must be a permutation of 0..n-1")

    xp = data.x[perm]
    dp = data.delta[perm]
    U = np.asfortranarray(data.predictors[perm])

    if variant == "full":
        if cache is None:
            cache = FullSampleCache(data)
        elif cache.data is not data:
            raise InputError("cache was built for a different dataset")
        km_full = cache.km
        yp = cache.y[perm]
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
        km_full = fit_censoring_km(data.x, data.delta)
        yp = _weighted_response(xp, dp, survival_at(km_full, xp))

        def step_nuisances(k, j):
            # nuisances from the first j rows, influence values there and at row j
            bundle, ipw, car = influence_block(
                U[: j + 1, [k]], xp[: j + 1], dp[: j + 1], yp[: j + 1], km_full, (k,), fit_rows=j
            )
            if_values = (ipw - car)[:, 0]
            return float(if_values[:j].var()), float(plugin_slope(bundle)[0]) + float(if_values[j])

    steps = n - q
    ks = np.empty(steps, dtype=np.intp)
    ms = np.empty(steps, dtype=np.int64)
    sigmas = np.empty(steps)
    raws = np.empty(steps)

    s1 = U[:q].sum(axis=0)
    s2 = np.einsum("ij,ij->j", U[:q], U[:q])
    for i, j in enumerate(range(q, n)):
        k, m = _select_from_prefix(U, xp, dp, j, s1, s2)
        sig2, raw = step_nuisances(k, j)
        sigma = math.sqrt(max(sig2, 0.0))
        if sigma < EPS_SIGMA:
            raise DegeneracyError(
                f"influence dispersion {sigma:.3g} below {EPS_SIGMA} at prefix size {j} "
                f"(predictor {k})"
            )
        ks[i], ms[i], sigmas[i], raws[i] = k, m, sigma, raw
        row = U[j]
        s1 += row
        s2 += row * row

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
        q_n=q, variant=variant, n=n, alpha=alpha, ordering_seed=ordering_seed,
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
    threads: int = 1,
) -> MultiOrderingResult:
    """Run R independent random orderings; reject if min p < alpha / R.

    Ordering r draws its permutation from the counter-based stream
    (seed, r), so results are reproducible for any thread count.
    """
    if orderings < 1:
        raise InputError(f"orderings must be >= 1, got {orderings}")
    cache = FullSampleCache(data) if variant == "full" else None

    def run(r: int) -> StabilizedResult:
        perm = stream(seed, r).permutation(data.n)
        return stabilized_estimate(
            data, q_n=q_n, variant=variant, ordering=perm,
            alpha=alpha, ordering_seed=r, cache=cache,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = tuple(pool.map(run, range(orderings)))
    else:
        results = tuple(run(r) for r in range(orderings))

    p_values = tuple(r.p_value for r in results)
    best_index = int(np.argmin(p_values))
    min_p = p_values[best_index]
    return MultiOrderingResult(
        results=results, p_values=p_values, min_p=min_p,
        adjusted_p=min(1.0, orderings * min_p), best_index=best_index,
        reject=bool(min_p < alpha / orderings), alpha=alpha, seed=seed,
    )
