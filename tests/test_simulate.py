import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from survscreen import one_step, stabilized_estimate
from survscreen.errors import DegeneracyError, InputError, SurvScreenError
from survscreen.simulate import (
    A2_BETAS,
    BLAS_THREAD_ENV,
    CENSORING_TARGETS,
    ERRORS,
    METHODS,
    MODELS,
    MonteCarloReport,
    ScenarioSpec,
    _calibrated_rate,
    calibrate_censoring_rate,
    generate_scenario,
    marginal_slopes,
    _noise_sd,
    monte_carlo_rejection,
)
from survscreen._rng import stream

from conftest import ingest_out_of_place, run_python, same_bits, src_env


class TestSpecValidation:
    def test_model_a2_needs_ten_predictors(self):
        with pytest.raises(InputError, match="A2"):
            ScenarioSpec(model="A2", p=9)

    def test_bad_values_rejected(self):
        with pytest.raises(InputError):
            ScenarioSpec(model="X")
        with pytest.raises(InputError):
            ScenarioSpec(error="correlated")
        with pytest.raises(InputError):
            ScenarioSpec(rho=1.0)
        with pytest.raises(InputError):
            ScenarioSpec(censoring="medium")
        with pytest.raises(InputError, match="p must be >= 1"):
            ScenarioSpec(p=0)


class TestTruth:
    def test_null_model_has_zero_slopes(self):
        assert np.array_equal(marginal_slopes(ScenarioSpec(model="N", p=4)), np.zeros(4))

    def test_single_active_predictor_slopes(self):
        truth = marginal_slopes(ScenarioSpec(model="A1", p=3))
        assert truth[0] == pytest.approx(0.25)
        assert truth[1] == truth[2] == pytest.approx(0.75 * 0.25)

    def test_ten_active_predictor_slopes(self):
        truth = marginal_slopes(ScenarioSpec(model="A2", p=12))
        total = 5 * 0.15 - 5 * 0.1
        assert truth[0] == pytest.approx(0.15 * 0.25 + 0.75 * total)
        assert truth[5] == pytest.approx(-0.1 * 0.25 + 0.75 * total)
        assert truth[11] == pytest.approx(0.75 * total)


class TestGeneration:
    def test_exchangeable_correlation(self):
        spec = ScenarioSpec(model="N", censoring="none", n=100_000, p=2, seed=3)
        data, _ = generate_scenario(spec)
        corr = np.corrcoef(data.predictors[:, 0], data.predictors[:, 1])[0, 1]
        assert abs(corr - 0.75) < 0.01

    def test_light_censoring_fraction(self):
        spec = ScenarioSpec(model="N", censoring="light", n=10_000, p=2, seed=4)
        data, _ = generate_scenario(spec)
        assert abs(data.censoring_fraction() - 0.10) < 0.02

    def test_heavy_censoring_fraction(self):
        spec = ScenarioSpec(model="A1", censoring="heavy", n=10_000, p=2, seed=5)
        data, _ = generate_scenario(spec)
        assert abs(data.censoring_fraction() - 0.30) < 0.02

    def test_deterministic_in_seed_and_rep(self):
        spec = ScenarioSpec(model="A1", n=50, p=3, seed=6)
        a, _ = generate_scenario(spec, rep=2)
        b, _ = generate_scenario(spec, rep=2)
        c, _ = generate_scenario(spec, rep=3)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.predictors, b.predictors)
        assert not np.array_equal(a.x, c.x)

    def test_dependent_noise_conditional_variance(self):
        # model N with dependent errors: T = eps, var(eps | u1) = 0.7(|u1| + 0.7)
        spec = ScenarioSpec(
            model="N", error="dependent", censoring="none", n=200_000, p=2, seed=7
        )
        data, _ = generate_scenario(spec)
        u1 = data.predictors[:, 0]  # standardized; raw scale to O(1/sqrt(n)) here
        t = data.x
        edges = np.quantile(u1, [0.0, 0.25, 0.5, 0.75, 1.0])
        for lo, hi in zip(edges[:-1], edges[1:]):
            mask = (u1 >= lo) & (u1 <= hi)
            want = 0.7 * (np.abs(u1[mask]) + 0.7).mean()
            got = t[mask].var()
            assert abs(got - want) / want < 0.05

    def test_uncensored_consistency_of_one_step(self):
        # mean of the slope estimate over replicates approaches the truth 0.25
        estimates = []
        for rep in range(500):
            spec = ScenarioSpec(model="A1", censoring="none", n=1000, p=3, seed=8)
            data, _ = generate_scenario(spec, rep)
            estimates.append(one_step(data, 0).s_onestep)
        assert abs(np.mean(estimates) - 0.25) < 0.02


def _generate_out_of_place(spec, rep):
    """generate_scenario's formulas written out of place: u from a separate
    draw array, then (x, status, u) stacked into one table and ingested."""
    rng = stream(spec.seed, 4 * rep)
    z0 = rng.standard_normal(spec.n)
    z = rng.standard_normal((spec.n, spec.p))
    u = math.sqrt(spec.rho) * z0[:, None] + math.sqrt(1.0 - spec.rho) * z
    eps = rng.standard_normal(spec.n) * _noise_sd(spec.error, u[:, 0])
    t = {"N": eps, "A1": u[:, 0] / 4.0 + eps}.get(spec.model)
    if t is None:
        t = u[:, :10] @ A2_BETAS + eps
    if spec.censoring == "none":
        x, status = t, np.ones(spec.n)
    else:
        rate = calibrate_censoring_rate(spec.model, spec.error, CENSORING_TARGETS[spec.censoring])
        c = np.log(rng.exponential(1.0, spec.n)) - math.log(rate)
        x, status = np.minimum(t, c), (t <= c).astype(np.float64)
    return ingest_out_of_place(np.column_stack((x, status, u)))


class TestInPlaceGeneration:
    @pytest.mark.parametrize("p", [1, 2, 257])
    @pytest.mark.parametrize("model,error,censoring", [
        ("N", "independent", "light"), ("A1", "dependent", "heavy"), ("A2", "independent", "none"),
    ])
    def test_bitwise_equal_to_out_of_place_formulas(self, p, model, error, censoring):
        if model == "A2" and p < 10:
            p += 10
        spec = ScenarioSpec(model=model, error=error, censoring=censoring, n=203, p=p,
                            rho=0.6, seed=p)
        data, _ = generate_scenario(spec, rep=1)
        x, delta, u, tau = _generate_out_of_place(spec, rep=1)
        assert same_bits(data.x, x) and same_bits(data.delta, delta)
        assert same_bits(data.predictors, u) and data.tau == tau

    def test_peak_memory_bounded(self):
        # ru_maxrss is in KiB on Linux.  Out of place, the draw, the combined
        # u, the stacked table and the copies of ingest raise the peak by 4.7x U.
        script = """
import resource
from survscreen.simulate import ScenarioSpec, calibrate_censoring_rate, generate_scenario
calibrate_censoring_rate("N", "independent", 0.10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
data, _ = generate_scenario(ScenarioSpec(model="N", censoring="light", n=500, p=20000, seed=1))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) * 1024 / data.predictors.nbytes)
"""
        assert float(run_python(["-c", script], blas_threads=1)) <= 2.5


class TestCalibration:
    def test_monotone_in_rate(self):
        from survscreen._rng import stream
        from survscreen.simulate import CALIBRATION_DRAWS, CALIBRATION_SEED, _survival_times

        probe = ScenarioSpec(model="N", censoring="none", n=2, p=10, seed=0)
        rng = stream(CALIBRATION_SEED, 0)
        _, t = _survival_times(rng, probe, CALIBRATION_DRAWS, 10)
        log_w = np.log(rng.exponential(1.0, CALIBRATION_DRAWS))
        fracs = [float(np.mean(t > log_w - np.log(lam))) for lam in (0.05, 0.5, 5.0)]
        assert fracs[0] < fracs[1] < fracs[2]

    def test_heavier_target_needs_larger_rate(self):
        light = calibrate_censoring_rate("N", "independent", 0.10)
        heavy = calibrate_censoring_rate("N", "independent", 0.30)
        assert heavy > light

    def test_self_consistency_on_fresh_seed(self):
        rate = calibrate_censoring_rate("A1", "independent", 0.10)
        spec = ScenarioSpec(model="A1", censoring="light", n=100_000, p=2, seed=99)
        data, _ = generate_scenario(spec)
        assert abs(data.censoring_fraction() - 0.10) <= 2 * 0.005 + 0.005
        assert rate > 0

    def test_bad_targets_rejected(self):
        with pytest.raises(InputError):
            calibrate_censoring_rate("N", "independent", 0.0)

    @pytest.mark.parametrize("error", ERRORS)
    @pytest.mark.parametrize("model", MODELS)
    def test_every_model_calibrates_to_the_same_dyadic_midpoints(self, model, error):
        # the bisection from (-60, 60) stops at the first midpoint within
        # CALIBRATION_TOL, and these two fall inside every model's band; the
        # rate is math.exp of that midpoint, so the host's libm cancels out
        assert calibrate_censoring_rate(model, error, 0.10) == math.exp(-2.6953125)
        assert calibrate_censoring_rate(model, error, 0.30) == math.exp(-1.2890625)


class TestMonteCarlo:
    def test_single_replicate_deterministic(self):
        spec = ScenarioSpec(model="A1", n=60, p=4, seed=10)
        a = monte_carlo_rejection(spec, "oracle", reps=1)
        b = monte_carlo_rejection(spec, "oracle", reps=1)
        assert a.rejections == b.rejections
        assert a.rejection_rate == b.rejection_rate
        assert a.coverage == b.coverage

    @pytest.mark.parametrize("method", ["stabilized_prefix", "stabilized_full"])
    def test_single_ordering_coverage_uses_study_alpha(self, method):
        spec = ScenarioSpec(model="A1", censoring="light", n=200, p=20, seed=4)
        alpha, reps = 0.5, 20
        covered = []
        for rep in range(reps):
            data, truth = generate_scenario(spec, rep)
            perm = stream(spec.seed, 4 * rep + 1).permutation(data.n)
            result = stabilized_estimate(data, variant=method.removeprefix("stabilized_"),
                                         ordering=perm, alpha=alpha)
            target = float(np.max(np.abs(truth)))
            if abs(truth[result.modal_k()]) == target:
                covered.append(result.ci_low <= target <= result.ci_high)
        report = monte_carlo_rejection(spec, method, reps, alpha=alpha)
        assert report.coverage == sum(covered) / len(covered)

    @pytest.mark.parametrize("method", ["stabilized_full", "stabilized_multiR"])
    def test_parallel_matches_serial(self, method):
        spec = ScenarioSpec(model="A1", n=60, p=4, seed=11)
        serial = monte_carlo_rejection(spec, method, reps=8, parallelism=1)
        # no rate in this process: each worker calibrates its own
        _calibrated_rate.cache_clear()
        parallel = monte_carlo_rejection(spec, method, reps=8, parallelism=2)
        assert _calibrated_rate.cache_info().currsize == 0
        for field in dataclasses.fields(MonteCarloReport):
            if field.name != "mean_runtime_ms":
                assert getattr(serial, field.name) == getattr(parallel, field.name), field.name

    def test_parallel_call_restores_environment(self, monkeypatch):
        # one variable set to another value, the others absent
        monkeypatch.setenv(BLAS_THREAD_ENV[0], "2")
        for name in BLAS_THREAD_ENV[1:]:
            monkeypatch.delenv(name, raising=False)
        before = dict(os.environ)
        monte_carlo_rejection(ScenarioSpec(model="A1", n=60, p=4, seed=14), "oracle", reps=2,
                              parallelism=2)
        assert dict(os.environ) == before

    def test_script_without_main_guard_names_it(self, tmp_path):
        # each spawned worker re-runs the unguarded script and dies starting
        # its own pool; the caller gets a SurvScreenError, not BrokenProcessPool
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from survscreen import ScenarioSpec, monte_carlo_rejection\n"
            "monte_carlo_rejection(ScenarioSpec(n=40, p=3, seed=1), 'oracle', 2, parallelism=2)\n"
        )
        done = subprocess.run([sys.executable, str(script)], env=src_env(), cwd=tmp_path,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode != 0
        assert "survscreen.errors.SurvScreenError: a Monte-Carlo worker process died" in done.stderr
        assert 'if __name__ == "__main__":' in done.stderr

    def test_failed_replicate_aborts_with_seed(self):
        spec = ScenarioSpec(model="N", n=2, p=2, seed=12)  # too few rows for any q_n
        with pytest.raises(SurvScreenError, match="replicate 0 .seed 12."):
            monte_carlo_rejection(spec, "stabilized_full", reps=2)

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_failed_replicate_keeps_error_class(self, parallelism):
        # with two workers the error crosses the process boundary
        spec = ScenarioSpec(model="N", n=2, p=2, seed=1)
        with pytest.raises(InputError, match="replicate 0 .seed 1. failed: the stabilized screen"):
            monte_carlo_rejection(spec, "stabilized_full", reps=parallelism,
                                  parallelism=parallelism)
        spec = ScenarioSpec(model="N", n=2, p=2, seed=1)
        with pytest.raises(DegeneracyError, match="replicate 0 .seed 1. failed"):
            monte_carlo_rejection(spec, "oracle", reps=parallelism, parallelism=parallelism)

    @pytest.mark.parametrize("parallelism", [0, -2])
    def test_parallelism_below_one_rejected(self, parallelism):
        spec = ScenarioSpec(n=20, p=2)
        with pytest.raises(InputError, match="parallelism must be >= 1"):
            monte_carlo_rejection(spec, "oracle", reps=1, parallelism=parallelism)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("orderings", [0, -5])
    def test_orderings_below_one_rejected(self, method, orderings):
        spec = ScenarioSpec(n=20, p=2)
        with pytest.raises(InputError, match=f"^orderings must be >= 1, got {orderings}$"):
            monte_carlo_rejection(spec, method, reps=1, orderings=orderings)

    def test_unknown_method_rejected(self):
        spec = ScenarioSpec(n=20, p=2)
        with pytest.raises(InputError, match="method"):
            monte_carlo_rejection(spec, "wald", reps=1)

    def test_csv_round_trip(self):
        spec = ScenarioSpec(model="A1", n=60, p=4, seed=13)
        report = monte_carlo_rejection(spec, "oracle", reps=4)
        header = MonteCarloReport.csv_header().split(",")
        row = report.csv_row().split(",")
        assert len(header) == len(row)
        record = dict(zip(header, row))
        assert record["model"] == "A1" and record["method"] == "oracle"
        assert int(record["reps"]) == 4
        assert 0.0 <= float(record["rejection_rate"]) <= 1.0


def test_censoring_targets_table():
    assert CENSORING_TARGETS == {"light": 0.10, "heavy": 0.30, "none": 0.0}
