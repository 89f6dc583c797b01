"""Synthetic scenarios and seeded Monte-Carlo studies.

Three data-generating models for the log survival time, all with predictors
drawn from an exchangeable multivariate normal (correlation rho between any
two predictors, built from a shared factor so cost stays O(np)):

* N:  T = eps                     (global null)
* A1: T = U_1 / 4 + eps           (one active predictor)
* A2: T = sum_j beta_j U_j + eps  (beta_1..5 = 0.15, beta_6..10 = -0.1)

The noise is N(0, 1), or, in the "dependent" case, normal with *variance*
0.7 * (|U_1| + 0.7).  Censoring times are logs of exponential variables
whose rate is calibrated by bisection against a fixed Monte-Carlo sample to
hit a target censoring fraction (light 10%, heavy 30%).  Each process, and
so each spawned Monte-Carlo worker, calibrates a rate once: about 40 ms.

Replicate r of a study draws its data from the counter-based stream
(seed, 4r) and its orderings from (seed, 4r + 1), so runs are reproducible
under any degree of parallelism.
"""

import functools
import math
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._rng import stream
from .dataset import _build
from .errors import (DegeneracyError, InputError, SurvScreenError, _choice, _instance, _integer,
                     _level, _real)
from .onestep import bonferroni_test, one_step
from .stabilized import multi_ordering_test, stabilized_estimate

MODELS = ("N", "A1", "A2")
ERRORS = ("independent", "dependent")
CENSORING_TARGETS = {"light": 0.10, "heavy": 0.30, "none": 0.0}
METHODS = ("stabilized_prefix", "stabilized_full", "stabilized_multiR", "bonferroni", "oracle")

A2_BETAS = np.array([0.15] * 5 + [-0.1] * 5)

CALIBRATION_SEED = 202608
CALIBRATION_DRAWS = 100_000
CALIBRATION_TOL = 0.005

# BLAS thread-count variables a spawned Monte-Carlo worker starts with set to 1
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class ScenarioSpec:
    """One data-generating configuration."""

    model: str = "N"
    error: str = "independent"
    censoring: str = "light"
    n: int = 500
    p: int = 100
    rho: float = 0.75
    seed: int = 0

    def __post_init__(self):
        _choice("model", self.model, MODELS)
        _choice("error", self.error, ERRORS)
        _choice("censoring", self.censoring, CENSORING_TARGETS)
        # frozen: the checked ints replace what was passed
        object.__setattr__(self, "n", _integer("n", self.n, 2))
        object.__setattr__(self, "p", _integer("p", self.p, 1))
        object.__setattr__(self, "seed", _integer("seed", self.seed))
        if self.model == "A2" and self.p < 10:
            raise InputError(f"model A2 sets 10 coefficients; needs p >= 10, got {self.p}")
        rho = self.rho
        if isinstance(rho, bool) or not isinstance(rho, numbers.Real) or not 0.0 <= rho < 1.0:
            raise InputError(f"rho must be a number in [0, 1), got {rho!r}")
        object.__setattr__(self, "rho", float(rho))


def model_betas(spec: ScenarioSpec) -> np.ndarray:
    """Regression coefficients of the generating model."""
    beta = np.zeros(spec.p)
    if spec.model == "A1":
        beta[0] = 0.25
    elif spec.model == "A2":
        beta[:10] = A2_BETAS
    return beta


def marginal_slopes(spec: ScenarioSpec) -> np.ndarray:
    """Population marginal slopes of T on each (unit-variance) predictor.

    With exchangeable correlation rho, cov(U_k, T) = beta_k (1 - rho)
    + rho * sum(beta).
    """
    beta = model_betas(spec)
    return beta * (1.0 - spec.rho) + spec.rho * beta.sum()


def _noise_sd(error: str, u1: np.ndarray) -> np.ndarray:
    if error == "independent":
        return np.ones(len(u1))
    return np.sqrt(0.7 * (np.abs(u1) + 0.7))


def _survival_times(rng, spec: ScenarioSpec, n: int, p: int) -> tuple:
    """(U, T) draws; draw order is fixed: factor, idiosyncratic, noise."""
    z0 = rng.standard_normal(n)
    u = rng.standard_normal((n, p))
    # sqrt(rho) z0 + sqrt(1 - rho) z, built in the draw's own array
    np.multiply(u, math.sqrt(1.0 - spec.rho), out=u)
    u += math.sqrt(spec.rho) * z0[:, None]
    eps = rng.standard_normal(n) * _noise_sd(spec.error, u[:, 0])
    if spec.model == "N":
        t = eps
    elif spec.model == "A1":
        t = u[:, 0] / 4.0 + eps
    else:
        t = u[:, :10] @ A2_BETAS + eps
    return u, t


def calibrate_censoring_rate(model: str, error: str, target: float) -> float:
    """Exponential rate whose log gives the target censoring fraction.

    Bisection against a fixed 1e5-draw Monte-Carlo sample (its own seed), so
    calibrated rates are reproducible artifacts.  The censoring fraction is
    monotone increasing in the rate.  Each process computes a rate once.
    """
    _choice("model", model, MODELS)
    _choice("error", error, ERRORS)
    return _calibrated_rate(model, error, _real("target", target, 0, 1))


@functools.cache
def _calibrated_rate(model: str, error: str, target: float) -> float:
    probe_spec = ScenarioSpec(model=model, error=error, censoring="none", n=2, p=10, seed=0)
    rng = stream(CALIBRATION_SEED, 0)
    _, t = _survival_times(rng, probe_spec, CALIBRATION_DRAWS, 10)
    log_w = np.log(rng.exponential(1.0, CALIBRATION_DRAWS))

    def fraction(log_rate: float) -> float:
        # C = log(W / rate); censored iff T > C
        return float(np.mean(t > log_w - log_rate))

    lo, hi = -60.0, 60.0
    if not fraction(lo) <= target <= fraction(hi):
        raise DegeneracyError(f"cannot bracket censoring target {target}")
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        f = fraction(mid)
        if abs(f - target) <= CALIBRATION_TOL:
            return math.exp(mid)
        if f < target:
            lo = mid
        else:
            hi = mid
    raise DegeneracyError(f"censoring calibration did not converge for target {target}")


def generate_scenario(spec: ScenarioSpec, rep: int = 0):
    """One dataset draw plus the true marginal slope vector.

    Deterministic in (spec.seed, rep); the follow-up cap is the largest
    observed time (no truncation) and predictors are standardized.
    """
    _instance("spec", spec, ScenarioSpec)
    rng = stream(spec.seed, 4 * _integer("rep", rep, 0))
    u, t = _survival_times(rng, spec, spec.n, spec.p)
    if spec.censoring == "none":
        x = t
        status = np.ones(spec.n)
    else:
        rate = calibrate_censoring_rate(spec.model, spec.error, CENSORING_TARGETS[spec.censoring])
        c = np.log(rng.exponential(1.0, spec.n)) - math.log(rate)
        x = np.minimum(t, c)
        status = (t <= c).astype(np.float64)
    data = _build(x, status, u, level=1.0, standardize=True, names=None)
    return data, marginal_slopes(spec)


@dataclass(frozen=True)
class MonteCarloReport:
    """Aggregated rejection behavior of one method under one scenario."""

    spec: ScenarioSpec
    method: str
    reps: int
    rejections: int
    rejection_rate: float
    mean_runtime_ms: float
    coverage: Optional[float]

    @staticmethod
    def csv_header() -> str:
        return "model,error,censoring,n,p,method,reps,rejection_rate,coverage,mean_runtime_ms"

    def csv_row(self) -> str:
        cov = "" if self.coverage is None else f"{self.coverage:.6g}"
        return (
            f"{self.spec.model},{self.spec.error},{self.spec.censoring},"
            f"{self.spec.n},{self.spec.p},{self.method},{self.reps},"
            f"{self.rejection_rate:.6g},{cov},{self.mean_runtime_ms:.6g}"
        )


def _run_replicate(spec, method, alpha, orderings, rep) -> tuple:
    """(rejected, covered-or-None, runtime_ms) for one replicate."""
    try:
        data, truth = generate_scenario(spec, rep)
        target = float(np.max(np.abs(truth)))
        k_star = int(np.argmax(np.abs(truth)))
        start = time.perf_counter()
        covered = None
        if method == "oracle":
            result = one_step(data, k_star, alpha=alpha)
            rejected = bool(result.p_value < alpha)
            if target > 0.0:
                covered = bool(result.ci_low <= truth[k_star] <= result.ci_high)
        elif method == "bonferroni":
            rejected = bonferroni_test(data, alpha=alpha).reject
        else:  # the stabilized methods: coverage of the modal predictor's CI
            draw = stream(spec.seed, 4 * rep + 1)
            if method == "stabilized_multiR":
                outcome = multi_ordering_test(data, orderings=orderings, variant="full",
                                              alpha=alpha, seed=int(draw.integers(2 ** 63)))
                rejected, result = outcome.reject, outcome.best
            else:
                result = stabilized_estimate(data, variant=method.removeprefix("stabilized_"),
                                             ordering=draw.permutation(data.n), alpha=alpha)
                rejected = bool(result.p_value < alpha)
            if target > 0.0 and abs(truth[result.modal_k()]) == target:
                covered = bool(result.ci_low <= target <= result.ci_high)
        ms = (time.perf_counter() - start) * 1000.0
        return rejected, covered, ms
    except SurvScreenError as exc:  # keeps its class, so the CLI exit code stays right
        raise type(exc)(f"replicate {rep} (seed {spec.seed}) failed: {exc}") from exc


@contextmanager
def _one_blas_thread():
    """Set every BLAS_THREAD_ENV variable to 1 for the block, then restore the
    environment exactly (values and absences)."""
    saved = {name: os.environ.get(name) for name in BLAS_THREAD_ENV}
    os.environ.update(dict.fromkeys(BLAS_THREAD_ENV, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def monte_carlo_rejection(
    spec: ScenarioSpec,
    method: str,
    reps: int,
    alpha: float = 0.05,
    parallelism: int = 1,
    orderings: int = 10,
) -> MonteCarloReport:
    """Seeded rejection-rate study; a failing replicate aborts the report.

    With ``parallelism > 1`` the replicates run in that many spawned worker
    processes (at most one per replicate), each on one BLAS thread, so
    ``parallelism`` is the number of cores used.  The report does not depend
    on it.  Spawned workers import the caller's main module, so a script
    that asks for parallelism calls this under ``if __name__ == "__main__":``;
    without it the workers die and the call raises SurvScreenError.
    """
    _instance("spec", spec, ScenarioSpec)
    reps = _integer("reps", reps, 1)
    _choice("method", method, METHODS)
    parallelism = _integer("parallelism", parallelism, 1)
    orderings = _integer("orderings", orderings, 1)
    alpha = _level(alpha)

    replicate = functools.partial(_run_replicate, spec, method, alpha, orderings)
    if parallelism > 1:
        # loaded here: the serial path never needs the process pool machinery
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = max(1, reps // (parallelism * 8))
        try:
            with ProcessPoolExecutor(
                max_workers=min(parallelism, reps), mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                # a spawned worker starts when map submits its tasks, and its BLAS
                # reads the thread count from the environment as numpy loads
                with _one_blas_thread():
                    results = pool.map(replicate, range(reps), chunksize=chunk)
                outcomes = list(results)
        except BrokenProcessPool as exc:
            raise SurvScreenError(
                "a Monte-Carlo worker process died before finishing its replicates; "
                "a script that asks for parallelism > 1 must call monte_carlo_rejection "
                'under if __name__ == "__main__":, because each spawned worker imports '
                "the script's main module"
            ) from exc
    else:
        outcomes = [replicate(rep) for rep in range(reps)]

    rejections = sum(1 for rej, _, _ in outcomes if rej)
    runtimes = [ms for _, _, ms in outcomes]
    covered = [c for _, c, _ in outcomes if c is not None]
    return MonteCarloReport(
        spec=spec, method=method, reps=reps, rejections=rejections,
        rejection_rate=rejections / reps,
        mean_runtime_ms=float(np.mean(runtimes)),
        coverage=(sum(covered) / len(covered)) if covered else None,
    )
