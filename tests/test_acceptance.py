"""Acceptance suite: one test per release criterion, at fixed tolerances.

Each test prints a single PASS line with the measured quantity and its
runtime once its assertions hold, so `pytest tests/test_acceptance.py -v -s`
reads as a checklist.  Monte-Carlo criteria use fixed study seeds and 2-way
replicate parallelism.
"""

import json
import re
import time

import numpy as np
import pytest
from scipy.stats import kstest

import oracles
from survscreen import one_step, stabilized_estimate
from survscreen.censoring import fit_censoring_km, synthetic_response
from survscreen.errors import DegeneracyError
from survscreen.onestep import _Kernel
from survscreen.simulate import ScenarioSpec, generate_scenario, monte_carlo_rejection
from survscreen._rng import stream

from conftest import SRC, random_dataset, run_python

ROOT = SRC.parent

PARALLELISM = 2


# start of the running test, and seconds spent in each shared study fixture
_clock = {}


@pytest.fixture(autouse=True)
def _start_clock():
    _clock["test"] = time.perf_counter()


def report(n, text, studies=()):
    """Print the PASS line with the test's runtime; ``studies`` names the
    shared module fixtures it used, whose runtime is not in the test's."""
    runtime = f"{time.perf_counter() - _clock['test']:.1f} s"
    for name in studies:
        runtime += f" + {_clock[name]:.1f} s shared study {name}"
    print(f"PASS criterion {n}: {text} [{runtime}]")


def a1_study(method):
    start = time.perf_counter()
    spec = ScenarioSpec(model="A1", censoring="light", n=500, p=100, seed=12)
    study = monte_carlo_rejection(spec, method, 500, parallelism=PARALLELISM)
    _clock[f"A1 {method}"] = time.perf_counter() - start
    return study


@pytest.fixture(scope="module")
def a1_stabilized_report():
    return a1_study("stabilized_full")


@pytest.fixture(scope="module")
def a1_oracle_report():
    return a1_study("oracle")


def normalized_gap(a, b):
    """|a - b| scaled so 1e-10 means 'agree to 1e-10' even when a near-floor
    dispersion inflates the weighted increments past what 1e-10 absolute
    could express in double precision."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_forms, worst_stab = 0.0, 0.0
    for i in range(1000):
        data = random_dataset(rng, censor=0.2)
        k = int(rng.integers(0, data.p))
        r = one_step(data, k)
        form_a = r.psi_plugin + float(r.if_values.mean())
        worst_forms = max(worst_forms, abs(form_a - r.s_onestep))

        q = int(rng.integers(2, data.n))
        variant = "full" if i % 2 == 0 else "prefix"
        rows = [list(row) for row in data.predictors]
        try:
            got = stabilized_estimate(data, q_n=q, variant=variant)
        except DegeneracyError:
            # tiny prefixes can degenerate legitimately; the oracle must agree
            sigmas = oracles.stabilized_sigmas(list(data.x), list(data.delta), rows, q, variant)
            assert min(sigmas) < 1e-8
            continue
        want = oracles.stabilized(list(data.x), list(data.delta), rows, q, variant)
        worst_stab = max(worst_stab, normalized_gap(got.s_star, want["s_star"]))
        worst_stab = max(worst_stab, normalized_gap(got.sigma_bar, want["sigma_bar"]))
        for i, ((j, kk, m, sigma, _), inc) in enumerate(zip(want["steps"], want["increments"])):
            assert (q + i, got.k[i], got.m[i]) == (j, kk, m)
            worst_stab = max(
                worst_stab,
                normalized_gap(got.sigma[i], sigma),
                normalized_gap(got.increment[i], inc),
            )
    elapsed = time.perf_counter() - start
    assert worst_forms < 1e-10
    assert worst_stab < 1e-10
    assert elapsed < 60.0
    report(1, f"1000 instances; max form gap {worst_forms:.2e}, "
              f"max oracle gap {worst_stab:.2e}, {elapsed:.1f} s")


def test_criterion_2_uncensored_reduction():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        data = random_dataset(rng, censor=0.0)
        k = int(rng.integers(0, data.p))
        r = one_step(data, k)
        u = data.predictors[:, k]
        ols = float(np.cov(u, data.x, bias=True)[0, 1] / np.var(u))
        worst = max(worst, abs(r.s_onestep - ols))
    assert worst < 1e-10
    report(2, f"100 uncensored instances; max |one-step - OLS| = {worst:.2e}")


def test_criterion_3_mean_zero_identity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(1000):
        data = random_dataset(rng, censor=0.2)
        k = int(rng.integers(0, data.p))
        km = fit_censoring_km(data.x, data.delta)
        y = synthetic_response(data, km)
        _, ipw, _ = _Kernel(data.x, data.delta, y, km, 1).influence(data.predictors[:, [k]])
        worst = max(worst, abs(float(ipw.mean())))
    assert worst < 1e-10
    report(3, f"1000 instances; max |mean inverse-weighting influence| = {worst:.2e}")


def test_criterion_4_type_one_error():
    spec = ScenarioSpec(model="N", censoring="light", n=500, p=100, seed=11)
    rep = monte_carlo_rejection(spec, "stabilized_full", 500, parallelism=PARALLELISM)
    assert 0.03 <= rep.rejection_rate <= 0.08
    report(4, f"null rejection rate {rep.rejection_rate:.3f} in [0.03, 0.08] (500 reps)")


def test_criterion_5_normal_calibration():
    stats = []
    for rep in range(500):
        spec = ScenarioSpec(model="N", censoring="light", n=200, p=50, seed=99)
        data, _ = generate_scenario(spec, rep)
        perm = stream(99, 4 * rep + 1).permutation(200)
        result = stabilized_estimate(data, variant="full", ordering=perm)
        stats.append(result.statistic)
    ks = kstest(np.array(stats), "norm")
    assert ks.pvalue >= 0.01
    report(5, f"KS vs N(0,1): statistic {ks.statistic:.4f}, p = {ks.pvalue:.3f} (500 reps)")


def test_criterion_6_power(a1_stabilized_report, a1_oracle_report):
    stab = a1_stabilized_report.rejection_rate
    orac = a1_oracle_report.rejection_rate
    assert stab >= 0.5
    assert orac >= stab - 0.05
    report(6, f"power: stabilized {stab:.3f} >= 0.5, oracle {orac:.3f} >= stabilized - 0.05",
           studies=("A1 stabilized_full", "A1 oracle"))


def test_criterion_7_ci_coverage(a1_oracle_report):
    cov = a1_oracle_report.coverage
    assert 0.92 <= cov <= 0.98
    report(7, f"oracle 95% CI coverage of the true slope: {cov:.3f} in [0.92, 0.98]",
           studies=("A1 oracle",))


def test_criterion_8_multi_ordering_conservativeness():
    spec = ScenarioSpec(model="N", censoring="light", n=500, p=100, seed=8)
    rep = monte_carlo_rejection(
        spec, "stabilized_multiR", 500, parallelism=PARALLELISM, orderings=10
    )
    assert rep.rejection_rate <= 0.07
    report(8, f"R=10 Bonferroni null rejection rate {rep.rejection_rate:.3f} <= 0.07")


def test_criterion_9_throughput():
    spec = ScenarioSpec(model="N", censoring="light", n=500, p=100_000, seed=9)
    data, _ = generate_scenario(spec)
    start = time.perf_counter()
    result = stabilized_estimate(data, q_n=250, variant="full")
    elapsed = time.perf_counter() - start
    assert np.isfinite(result.p_value)
    assert elapsed < 600.0
    report(9, f"n=500, p=100000 full screen in {elapsed:.1f} s (< 600 s budget)")


def test_criterion_10_deterministic_reports():
    argv = [
        "-m", "survscreen.cli", "screen", "tests/data/toy_screen.csv", "--method", "stabilized",
        "--orderings", "4", "--seed", "31415",
    ]
    outputs = []
    for threads in (1, 2):
        text = run_python(argv, blas_threads=threads, cwd=ROOT)
        outputs.append(re.sub(r'"timing_ms": [0-9.eE+-]+', '"timing_ms": 0', text))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["seed"] == 31415
    report(10, "JSON reports byte-identical across BLAS thread counts (timing masked)")
