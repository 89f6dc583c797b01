import math
import os
import sys
import threading
import time

import numpy as np
import pytest
from scipy.stats import norm

import oracles
import reference_kernel
from survscreen import (
    bonferroni_test,
    conservative_variance,
    multi_ordering_test,
    one_step,
)
from survscreen.censoring import fit_censoring_km, synthetic_response
from survscreen.dataset import ingest
from survscreen._normal import MAXLOG
from survscreen import onestep
from survscreen.errors import DegeneracyError, InputError, SurvScreenError
from survscreen.onestep import (
    BLOCK_COLUMNS,
    NuisanceBundle,
    Z_95,
    _influence,
    _Kernel,
    _Martingale,
    _raise_first,
    _variance_floor,
    two_sided_p,
    z_value,
)
from survscreen.residual_life import AtRiskFit
from survscreen.simulate import ScenarioSpec, generate_scenario, monte_carlo_rejection

from conftest import random_dataset, same_bits


def toy_bundle(u_mean=0.0, u_var=1.0, e_mean=1.0, cov_u_e=0.5):
    return NuisanceBundle(
        u_mean=np.array([u_mean]), u_var=np.array([u_var]), e_mean=np.array([e_mean]),
        cov_u_e=np.array([cov_u_e]),
    )


def pieces(bundle, km, u, x, delta, y=0.0):
    """(ipw, car) of the block kernel for one observation of a one-column
    block, against the censoring fit km, with the constant prediction 1:
    no knots, intercept 1 and slope 0."""
    U = np.array([[u]])
    mv, cu, ipw, tmp, t1, t2 = (np.empty((1, 1)) for _ in range(6))
    mart = _Martingale(np.array([]), km, np.array([x]), np.array([delta]), 1)
    mart.values(np.array([[1.0]]), np.array([[0.0]]), np.array([[0.0]]), U, mv, t1, t2)
    ipw, car = _influence(bundle, U, np.array([[y]]), mv, cu, ipw, tmp)
    return float(ipw[0, 0]), float(car[0, 0])


def column_bundle(data, k=0):
    """Full-sample nuisances and (ipw, car) for column k as a block of one."""
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    bundle, ipw, car = _Kernel(data.x, data.delta, y, km, 1).influence(data.predictors[:, [k]])
    return bundle, ipw[:, 0], car[:, 0], y


def ksv_slope(u, y):
    """cov(U, Y) / var(U) as the residual-life kernel's slope at s = -inf."""
    n = len(u)
    slopes, _ = AtRiskFit(np.zeros(n), np.ones(n), y, 1).fit(np.asarray(u)[:, None])
    return float(slopes[0, 0])


def neighbours(v, k=64):
    """The positive double v and its k nearest doubles on each side."""
    return (np.float64(v).view(np.int64) + np.arange(-k, k + 1)).view(np.float64)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTailFunctions:
    """The normal tail functions equal scipy.stats.norm's bit for bit."""

    EDGES = [0.0, -0.0, 1e-300, -1e-300, 5e-324, -5e-324, 1.96, -1.96, 8.3, -8.3, 37.5, -37.5,
             38.5, -38.5, np.inf, -np.inf, np.nan]

    def grid(self):
        # |z| sqrt(1/2) = 1 and = 8 are ndtr's branch points, and past
        # |z|^2 / 2 = MAXLOG the tail underflows to 0
        rng = np.random.default_rng(7)
        edges = np.concatenate((neighbours(math.sqrt(2.0)), neighbours(8.0 * math.sqrt(2.0)),
                                neighbours(math.sqrt(2.0 * MAXLOG)), neighbours(2.2250738585072014e-308),
                                self.EDGES))
        return np.concatenate((edges, -edges, rng.standard_normal(60000) * 4.0,
                               rng.uniform(-40.0, 40.0, 40000)))

    def test_two_sided_p_equals_norm_sf_on_arrays(self):
        z = self.grid()
        assert z.size >= 100_000
        got, want = two_sided_p(z), 2.0 * norm.sf(np.abs(z))
        assert type(got) is type(want) and got.dtype == want.dtype
        assert np.array_equal(got, want, equal_nan=True)
        assert np.isnan(got[np.isnan(z)]).all()

    @pytest.mark.parametrize("z", EDGES)
    def test_two_sided_p_equals_norm_sf_on_scalars(self, z):
        got, want = two_sided_p(z), 2.0 * norm.sf(np.abs(z))
        assert type(got) is type(want) is np.float64
        assert got == want or np.isnan(got) and np.isnan(want)

    @pytest.mark.parametrize("z", [np.array(-2.5), np.array([]), np.array([0.3, -9.0, np.inf]),
                                   np.linspace(-40.0, 40.0, 24).reshape(4, 6)],
                             ids=["0-d", "empty", "1-d", "2-d"])
    def test_two_sided_p_keeps_type_dtype_and_shape(self, z):
        got, want = two_sided_p(z), 2.0 * norm.sf(np.abs(z))
        assert type(got) is type(want)
        assert got.dtype == want.dtype and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)

    def test_z_value_equals_norm_ppf(self):
        # levels on both sides of ndtri's branch point 1 - exp(-2), and
        # alpha < 2.5e-14, where sqrt(-2 log(alpha / 2)) >= 8
        rng = np.random.default_rng(11)
        alphas = np.concatenate((10.0 ** rng.uniform(-15.9, 0.0, 10000), rng.uniform(0.2, 0.35, 2000),
                                 neighbours(2.0 * math.exp(-2.0), 200), [0.01, 0.1, 1e-6, 0.5]))
        levels = 1.0 - alphas / 2.0
        assert (levels > 1.0 - math.exp(-2.0)).any() and (levels <= 1.0 - math.exp(-2.0)).any()
        assert (alphas < 2.5e-14).sum() > 100
        got = [z_value(float(a)) for a in alphas]
        assert all(type(v) is float for v in got)
        assert np.array_equal(got, norm.ppf(1.0 - alphas / 2.0))

    def test_z_value_keeps_the_literal_at_five_percent(self):
        assert z_value(0.05) == Z_95 == 1.96


class TestInfluencePieces:
    def test_ipw_hand_value(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([1, 1]))
        assert pieces(toy_bundle(), km, 1.0, 2.0, 1, 3.0)[0] == pytest.approx(1.5, abs=1e-14)

    def test_ipw_vanishes_at_mean(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([1, 1]))
        assert pieces(toy_bundle(), km, 0.0, 2.0, 1, 3.7)[0] == 0.0

    def test_car_no_censoring_vanishes(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([1, 1]))
        assert pieces(toy_bundle(), km, 1.3, 2.0, 1)[1] == 0.0

    def test_car_vanishes_at_mean(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([0, 1]))
        assert pieces(toy_bundle(), km, 0.0, 2.0, 1)[1] == 0.0

    def test_car_two_observation_composition(self):
        # constant prediction 1; event observation with (u - ubar) / var = 2
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([0, 1]))
        assert pieces(toy_bundle(), km, 2.0, 2.0, 1)[1] == pytest.approx(-1.0, abs=1e-14)

    def test_star_is_difference(self, rng):
        # one_step's influence values are the kernel's ipw - car, and match the oracle
        for _ in range(20):
            data = random_dataset(rng)
            _, ipw, car, _ = column_bundle(data)
            assert np.array_equal(one_step(data, 0).if_values, ipw - car)
            want = oracles.one_step(list(data.x), list(data.delta), list(data.predictors[:, 0]))
            assert np.allclose(ipw - car, want["if_values"], atol=1e-12)
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([0, 1]))
        assert pieces(toy_bundle(), km, 0.0, 2.0, 1, 4.2) == (0.0, 0.0)  # u at the mean

    def test_star_equals_ipw_on_uncensored_data(self, rng):
        data = random_dataset(rng, censor=0.0)
        _, ipw, car, _ = column_bundle(data)
        assert np.all(car == 0.0)
        assert np.array_equal(ipw - car, ipw)


class TestSlope:
    def test_identity_slope(self):
        t = np.array([0.3, 1.0, 2.0, 4.0])
        data = ingest(np.column_stack((t, np.ones(4), t)), standardize=False)
        y = synthetic_response(data)
        assert ksv_slope(data.predictors[:, 0], y) == pytest.approx(1.0, abs=1e-14)

    def test_hand_slope(self):
        assert ksv_slope(np.array([0.0, 1.0]), np.array([0.0, 2.0])) == pytest.approx(2.0)

    def test_constant_response(self):
        assert ksv_slope(np.array([0.0, 1.0, 2.0]), np.full(3, 4.4)) == pytest.approx(0.0)

    def test_variance_floor(self):
        x = np.array([1.0, 2.0, 3.0])
        delta = np.array([1, 1, 1])
        km = fit_censoring_km(x, delta)
        U = np.column_stack((np.array([0.0, 1.0, 2.0]), np.full(3, 2.0)))
        with np.errstate(divide="ignore", invalid="ignore"):
            bundle, _, _ = _Kernel(x, delta, x, km, 2).influence(np.asfortranarray(U))
        with pytest.raises(DegeneracyError, match="predictor 7 "):
            _raise_first(_variance_floor(bundle.u_var, (6, 7)))


class TestOneStep:
    def test_uncensored_equals_ols(self, rng):
        for _ in range(100):
            data = random_dataset(rng, censor=0.0)
            r = one_step(data, 0)
            u = data.predictors[:, 0]
            ols = np.cov(u, data.x, bias=True)[0, 1] / np.var(u)
            assert abs(r.s_onestep - ols) < 1e-10

    def test_three_point_example_matches_oracle(self):
        data = ingest(
            [[1, 0, -1.0], [2, 1, 0.0], [3, 1, 1.0]], standardize=False
        )
        r = one_step(data, 0)
        want = oracles.one_step([1.0, 2.0, 3.0], [0, 1, 1], [-1.0, 0.0, 1.0])
        assert abs(r.s_onestep - want["form_b"]) < 1e-12
        assert abs(r.psi_plugin - want["psi"]) < 1e-12
        assert abs(r.sigma_hat - want["sigma"]) < 1e-12
        assert np.allclose(r.if_values, want["if_values"], atol=1e-12)

    def test_matches_oracle_on_random_censored_data(self, rng):
        for _ in range(60):
            data = random_dataset(rng)
            k = int(rng.integers(0, data.p))
            r = one_step(data, k)
            want = oracles.one_step(list(data.x), list(data.delta), list(data.predictors[:, k]))
            assert abs(r.s_onestep - want["form_b"]) < 1e-10
            assert abs(want["form_a"] - want["form_b"]) < 1e-10

    def test_mean_zero_identity(self, rng):
        for _ in range(100):
            data = random_dataset(rng)
            _, ipw, _, _ = column_bundle(data)
            assert abs(ipw.mean()) < 1e-10

    def test_location_invariance_of_mean_zero_identity(self, rng):
        data = random_dataset(rng)
        shifted = ingest(
            np.column_stack((data.x + 7.5, data.delta, data.predictors)), standardize=False
        )
        _, ipw, _, _ = column_bundle(shifted)
        assert abs(ipw.mean()) < 1e-10

    def test_sign_equivariance(self, rng):
        data = random_dataset(rng)
        flipped = ingest(
            np.column_stack((data.x, data.delta, -data.predictors)), standardize=False
        )
        a = one_step(data, 0)
        b = one_step(flipped, 0)
        assert b.psi_plugin == pytest.approx(-a.psi_plugin, abs=1e-12)
        assert b.s_onestep == pytest.approx(-a.s_onestep, abs=1e-12)
        assert np.allclose(b.if_values, -a.if_values, atol=1e-12)
        assert b.sigma_hat == pytest.approx(a.sigma_hat, abs=1e-12)
        assert b.p_value == pytest.approx(a.p_value, abs=1e-12)

    def test_result_invariants(self, rng):
        for _ in range(20):
            data = random_dataset(rng)
            r = one_step(data, 0)
            assert r.sigma_hat ** 2 == pytest.approx(
                float((r.if_values ** 2).mean()), abs=1e-12
            )
            assert r.ci_low <= r.s_onestep <= r.ci_high
            want_p = 2.0 * (1.0 - norm.cdf(abs(math.sqrt(data.n) * r.s_onestep / r.sigma_hat)))
            assert r.p_value == pytest.approx(want_p, abs=1e-12)

    @pytest.mark.parametrize("method", [one_step, conservative_variance])
    def test_predictor_index_outside_the_columns_is_rejected(self, rng, method):
        data = random_dataset(rng, n=15, p=3)
        for k in (-1, 3, 8):
            with pytest.raises(InputError, match=rf"^k must be in \[0, 2\], got {k}$"):
                method(data, k)

    def test_numpy_integer_index_gives_the_same_result(self, rng):
        data = random_dataset(rng, n=15, p=3)
        a, b = one_step(data, np.int64(2)), one_step(data, 2)
        assert (a.k, a.s_onestep, a.p_value) == (b.k, b.s_onestep, b.p_value)
        assert conservative_variance(data, np.int64(2)) == conservative_variance(data, 2)

    def test_result_arrays_are_read_only(self, rng):
        data = random_dataset(rng, n=15, p=3)
        with pytest.raises(ValueError, match="read-only"):
            one_step(data, 0).if_values[0] = 1.0
        result = bonferroni_test(data)
        for name in ("p_values", "statistics"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(result, name)[0] = 1.0

    def test_independent_predictor_is_rarely_extreme(self):
        # |S| < 3 sigma / sqrt(n) in at least 99% of seeds
        hits = 0
        for seed in range(400):
            spec = ScenarioSpec(model="N", n=200, p=1, seed=seed)
            data, _ = generate_scenario(spec)
            r = one_step(data, 0)
            hits += abs(r.statistic) < 3.0
        assert hits >= 396


class TestBonferroni:
    def test_single_predictor_reduces_to_one_step(self, rng):
        data = random_dataset(rng, p=1)
        b = bonferroni_test(data, alpha=0.05)
        r = one_step(data, 0)
        assert b.min_p == r.p_value
        assert b.reject == (r.p_value < 0.05)
        assert b.adjusted_p == min(1.0, r.p_value)

    def test_duplicate_columns_get_identical_statistics(self, rng):
        data = random_dataset(rng, p=1)
        dup = ingest(
            np.column_stack((data.x, data.delta, data.predictors[:, 0], data.predictors[:, 0])),
            standardize=False,
        )
        b = bonferroni_test(dup)
        assert b.statistics[0] == b.statistics[1]
        assert b.p_values[0] == b.p_values[1]
        assert b.selected == 0

    def test_rejection_rule(self, rng):
        data = random_dataset(rng, p=3)
        b = bonferroni_test(data, alpha=0.05)
        assert b.reject == (b.min_p < 0.05 / 3)

    @staticmethod
    def wide_heavy_dataset(near_constant=None):
        """More than two blocks of predictors under heavy censoring; columns
        B-1 | B and 2B-1 | 2B are duplicated pairs straddling the block
        boundaries, the first pair the only active predictor."""
        b = BLOCK_COLUMNS
        rng = np.random.default_rng(3)
        n, p = 200, 2 * b + 40
        U = rng.standard_normal((n, p))
        U[:, b] = U[:, b - 1]
        U[:, 2 * b] = U[:, 2 * b - 1]
        t = U[:, b - 1] + rng.standard_normal(n)
        c = rng.standard_normal(n) + np.quantile(t, 0.6)
        if near_constant is not None:
            U[:, near_constant] = 1.0 + 1e-6 * U[:, near_constant]
        table = np.column_stack((np.minimum(t, c), (t <= c).astype(float), U))
        return ingest(table, standardize=False)

    def test_matches_one_step_across_block_boundaries(self):
        data = self.wide_heavy_dataset()
        assert data.p > 2 * BLOCK_COLUMNS and data.censoring_fraction() > 0.2
        b = bonferroni_test(data)
        for k in range(data.p):
            r = one_step(data, k)
            assert b.p_values[k] == r.p_value, k
            assert b.statistics[k] == r.statistic, k
        best = one_step(data, b.selected)
        assert (b.best.s_onestep, b.best.ci_low, b.best.ci_high) == (
            best.s_onestep, best.ci_low, best.ci_high)

    def test_duplicate_pairs_across_block_boundaries(self):
        data = self.wide_heavy_dataset()
        b = bonferroni_test(data)
        for lo in (BLOCK_COLUMNS - 1, 2 * BLOCK_COLUMNS - 1):
            assert b.statistics[lo] == b.statistics[lo + 1]
            assert b.p_values[lo] == b.p_values[lo + 1]
        assert b.selected == BLOCK_COLUMNS - 1
        assert b.best.k == BLOCK_COLUMNS - 1

    def test_near_constant_column_in_second_block_is_named(self):
        k = BLOCK_COLUMNS + 10
        data = self.wide_heavy_dataset(near_constant=k)
        with pytest.raises(DegeneracyError, match=f"predictor {k} "):
            bonferroni_test(data)

    def test_errors_follow_predictor_order_within_a_block(self, rng):
        # all censored: every predictor fails the dispersion floor, and the
        # near-constant column 2 also fails the variance floor; testing one
        # predictor at a time reports predictor 0 first
        u = rng.standard_normal((12, 4))
        u[:, 2] = 1.0 + 1e-6 * u[:, 2]
        data = ingest(np.column_stack((rng.exponential(1.0, 12), np.zeros(12), u)),
                      standardize=False)
        with pytest.raises(DegeneracyError, match="second moment below floor for predictor 0$"):
            bonferroni_test(data)
        with pytest.raises(DegeneracyError, match="predictor 2 has sample variance"):
            one_step(data, 2)

    def test_family_wise_error_control_model_n(self):
        spec = ScenarioSpec(model="N", n=500, p=100, seed=31)
        report = monte_carlo_rejection(spec, "bonferroni", reps=500, parallelism=2)
        assert report.rejection_rate <= 0.07


class TestKernelGate:
    """The block kernel returns the bits of the frozen reference copy in
    tests/reference_kernel.py: every p-value and statistic, and every error
    with its type, text and order.  The one intended difference: a dual-form
    disagreement is a DegeneracyError, where the reference raised a bare
    SurvScreenError."""

    @staticmethod
    def gate_dataset(rng):
        """A random dataset: n in 2..400 and p in 1..700, log-uniform; 0-80%
        censoring, all events or all censored; tied times; near-constant
        and far-from-zero columns, which hit the variance floor and the
        dual-form check; either standardization."""
        n = int(np.exp(rng.uniform(np.log(2), np.log(401))))
        p = int(np.exp(rng.uniform(0.0, np.log(701))))
        u = rng.standard_normal((n, p))
        t = u[:, 0] * rng.normal(0.0, 0.5) + rng.standard_normal(n)
        c = rng.standard_normal(n) + np.quantile(t, 1.0 - rng.uniform(0.0, 0.8))
        x, status = np.minimum(t, c), (t <= c).astype(float)
        kind = rng.integers(0, 10)
        if kind == 0:
            x, status = t, np.ones(n)
        elif kind == 1:
            status = np.zeros(n)
        if rng.random() < 0.4:
            x = np.round(x, int(rng.integers(0, 2)))
        if rng.random() < 0.2:
            j = int(rng.integers(0, p))
            u[:, j] = 1.0 + 1e-6 * u[:, j]
        if rng.random() < 0.15:
            j = int(rng.integers(0, p))
            u[:, j] = 1e4 + 1e-3 * u[:, j]
        return ingest(np.column_stack((x, status, u)), standardize=bool(rng.random() < 0.5))

    @staticmethod
    def outcome(run):
        try:
            return run(), None
        except SurvScreenError as exc:
            return None, (type(exc), str(exc))

    def test_bitwise_equal_to_the_reference_kernel(self):
        rng = np.random.default_rng(2026)
        seen = {"passed": 0, "variance": 0, "forms": 0, "dispersion": 0}
        for _ in range(1000):
            data = self.gate_dataset(rng)
            km = fit_censoring_km(data.x, data.delta)
            y = synthetic_response(data, km)
            want, want_error = self.outcome(
                lambda: reference_kernel.bonferroni_arrays(data, km, y, BLOCK_COLUMNS))
            got, got_error = self.outcome(lambda: bonferroni_test(data))
            if want_error is not None:
                kind, text = want_error
                if text.startswith("one-step forms disagree"):
                    kind = DegeneracyError
                assert got_error == (kind, text)
                seen["forms" if "forms" in text else
                     "variance" if "variance" in text else "dispersion"] += 1
                continue
            assert got_error is None, got_error
            assert same_bits(got.p_values, want[0])
            assert same_bits(got.statistics, want[1])
            # the selected predictor's result, if_values included
            k = got.selected
            block = reference_kernel.one_step_block(data.predictors[:, [k]], data.x,
                                                    data.delta, y, km, (k,))
            best = got.best
            assert same_bits(
                [best.psi_plugin, best.s_onestep, best.sigma_hat, best.ci_low, best.ci_high,
                 best.statistic, best.p_value],
                [block[i][0] for i in (0, 1, 3, 4, 5, 6, 7)])
            assert same_bits(best.if_values, block[2][:, 0])
            seen["passed"] += 1
        assert min(seen.values()) >= 10, seen

    def test_block_width_does_not_change_bits(self, monkeypatch):
        rng = np.random.default_rng(8)
        n, p = 150, 600
        u = rng.standard_normal((n, p))
        t = u[:, 3] + rng.standard_normal(n)
        c = rng.standard_normal(n) + np.quantile(t, 0.5)
        x = np.round(np.minimum(t, c), 1)  # tied times
        data = ingest(np.column_stack((x, (t <= c).astype(float), u)), standardize=False)
        results = []
        for width in (1, 7, 256):
            monkeypatch.setattr(onestep, "BLOCK_COLUMNS", width)
            results.append(bonferroni_test(data))
        for other in results[1:]:
            assert same_bits(other.p_values, results[0].p_values)
            assert same_bits(other.statistics, results[0].statistics)
            assert same_bits(other.best.if_values, results[0].best.if_values)

    @pytest.mark.parametrize("width", [1, 7, 256])
    def test_best_is_bitwise_one_step_of_the_selected_predictor(self, monkeypatch, width):
        monkeypatch.setattr(onestep, "BLOCK_COLUMNS", width)
        data = TestBonferroni.wide_heavy_dataset()
        b = bonferroni_test(data)
        want = one_step(data, b.selected)
        assert b.best.k == b.selected == want.k
        for field in ("psi_plugin", "s_onestep", "sigma_hat", "ci_low", "ci_high",
                      "statistic", "p_value", "alpha"):
            assert getattr(b.best, field) == getattr(want, field), field
        assert same_bits(b.best.if_values, want.if_values)
        assert not b.best.if_values.flags.writeable

    @staticmethod
    def tie_dataset():
        """Columns 1, 2 and 4 are equal and share the smallest p."""
        rng = np.random.default_rng(20260808)
        data = random_dataset(rng, n=40, p=1)
        signal = data.x + 0.3 * rng.standard_normal(40)
        noise = rng.standard_normal((40, 2))
        u = np.column_stack((noise[:, 0], signal, signal, noise[:, 1], signal))
        return ingest(np.column_stack((data.x, data.delta, u)), standardize=False)

    @pytest.mark.parametrize("width", [1, 2, 256])
    def test_tie_keeps_the_lowest_index(self, monkeypatch, width):
        # equal smallest p within a block and across blocks
        monkeypatch.setattr(onestep, "BLOCK_COLUMNS", width)
        b = bonferroni_test(self.tie_dataset())
        assert b.p_values[1] == b.p_values[2] == b.p_values[4] == b.min_p
        assert b.selected == b.best.k == 1

    def test_dual_form_disagreement_is_a_degeneracy(self):
        # far from zero, the uncentred moments lose the digits the two forms share
        data, _ = generate_scenario(ScenarioSpec(model="A1", censoring="light", n=300, p=2, seed=3))
        u = np.column_stack((1e4 + 1e-3 * data.predictors[:, 0], data.predictors[:, 1]))
        shifted = ingest(np.column_stack((data.x, data.delta, u)), standardize=False)
        message = r"^one-step forms disagree by .* for predictor 0$"
        for run in (lambda: bonferroni_test(shifted), lambda: one_step(shifted, 0)):
            with pytest.raises(DegeneracyError, match=message):
                run()


class TestThreadedBlocks:
    """bonferroni_test splits its column blocks across threads
    (onestep._over_blocks, sized by onestep._cores): every output bit is the
    one-thread run's, and an error crosses back as a serial loop raises it."""

    @staticmethod
    def recording(monkeypatch, cores, block_columns=None, one_step=None, build=None):
        """Run the kernels on ``cores`` threads, with blocks of at most
        ``block_columns`` (the row-sweep cap lifted), and return the list to
        which each kernel built appends (width, thread).  ``one_step``, if
        given, runs as one_step(kernel, ks) before each block, but not before
        the selected predictor's own one_step, whose ks is the tuple (k,);
        ``build``, if given, runs as build(width) before each kernel is built."""
        monkeypatch.setattr(onestep, "_cores", lambda: cores)
        if block_columns is not None:
            monkeypatch.setattr(onestep, "BLOCK_COLUMNS", block_columns)
            monkeypatch.setattr(onestep, "SWEEP_MIN_COLUMNS", 1)
        built = []

        class Recording(_Kernel):
            def __init__(self, *args):
                built.append((args[4], threading.current_thread()))
                if build is not None:
                    build(args[4])
                super().__init__(*args)

            def one_step(self, U, ks, alpha):
                if one_step is not None and isinstance(ks, range):
                    one_step(self, ks)
                return super().one_step(U, ks, alpha)

        monkeypatch.setattr(onestep, "_Kernel", Recording)
        return built

    @staticmethod
    def first_two_blocks_at_once(then=lambda kernel, ks: None):
        """A one_step hook that holds each of the first two blocks until the
        other is taken, so they run on different threads, then calls ``then``."""
        barrier = threading.Barrier(2)

        def hook(kernel, ks):
            if ks.start < 2 * len(ks):
                barrier.wait(timeout=30)
                then(kernel, ks)
        return hook

    @pytest.mark.parametrize("dataset,block_columns,most", [
        ("wide", None, 3),  # 3 blocks of 256
        ("wide", 7, 3),
        ("wide", 1, 1),  # one column a block: a worker's width stays 1
        ("ties", 2, 2),  # the tied columns 1, 2 and 4 in three blocks of 1
        ("ties", 7, 1),  # one block
        ("ties", 1, 1),
    ])
    def test_threads_do_not_change_bits(self, monkeypatch, dataset, block_columns, most):
        data = TestBonferroni.wide_heavy_dataset() if dataset == "wide" else TestKernelGate.tie_dataset()
        results = []
        for cores in (1, 2, 3):
            built = self.recording(monkeypatch, cores, block_columns)
            results.append(bonferroni_test(data))
            # the block kernels, then the selected predictor's one_step
            *blocks, winner = built
            widths = [width for width, _ in blocks]
            assert len({thread for _, thread in blocks}) == len(blocks) == min(cores, most)
            assert min(widths) >= 1 and sum(widths) <= onestep.BLOCK_COLUMNS
            assert winner == (1, threading.current_thread())
        one = results[0]
        for other in results[1:]:
            assert same_bits(other.p_values, one.p_values)
            assert same_bits(other.statistics, one.statistics)
            assert other.selected == other.best.k == one.best.k
            for field in ("psi_plugin", "s_onestep", "sigma_hat", "ci_low", "ci_high",
                          "statistic", "p_value"):
                assert same_bits(getattr(other.best, field), getattr(one.best, field)), field
            assert same_bits(other.best.if_values, one.best.if_values)
        if dataset == "ties":
            assert one.selected == 1

    @staticmethod
    def floored_dataset():
        """Three blocks of 256 columns, whose near-constant columns 5 and 131
        fail the variance floor: in the first two blocks of 128 columns when
        two workers share them."""
        rng = np.random.default_rng(4)
        n, p = 120, 2 * BLOCK_COLUMNS + 40
        u = rng.standard_normal((n, p))
        for k in (5, 131):
            u[:, k] = 1.0 + 1e-6 * u[:, k]
        t = u[:, 0] + rng.standard_normal(n)
        c = rng.standard_normal(n) + np.quantile(t, 0.6)
        return ingest(np.column_stack((np.minimum(t, c), (t <= c).astype(float), u)),
                      standardize=False)

    @pytest.mark.parametrize("lower_fails_last", [False, True])
    def test_lowest_failing_block_raises_across_threads(self, monkeypatch, lower_fails_last):
        # the first two blocks run at once, one on each thread
        def delay(kernel, ks):
            if lower_fails_last and ks.start == 0:
                time.sleep(0.05)

        built = self.recording(monkeypatch, 2, one_step=self.first_two_blocks_at_once(delay))
        before = threading.active_count()
        with pytest.raises(DegeneracyError, match="^predictor 5 has sample variance"):
            bonferroni_test(self.floored_dataset())
        assert len(built) == 2
        assert threading.active_count() == before

    def test_a_kernel_that_cannot_be_built_fails_before_every_block(self, monkeypatch):
        # the helper's kernel fails once the caller has taken the first block,
        # which then fails its variance floor: a serial loop would fail on the
        # kernel before it reached any block
        class Unbuilt(Exception):
            pass

        taken = threading.Event()

        def build(width):
            if threading.current_thread() is not threading.main_thread():
                assert taken.wait(timeout=30)
                raise Unbuilt

        def take(kernel, ks):
            taken.set()

        self.recording(monkeypatch, 2, one_step=take, build=build)
        before = threading.active_count()
        with pytest.raises(Unbuilt):
            bonferroni_test(self.floored_dataset())
        assert taken.is_set()
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["helper", "caller"])
    def test_any_exception_crosses_back_after_every_join(self, monkeypatch, failing):
        class Boom(Exception):
            pass

        def fail(kernel, ks):
            if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
                raise Boom(ks.start)

        self.recording(monkeypatch, 2, one_step=self.first_two_blocks_at_once(fail))
        before = threading.active_count()
        with pytest.raises(Boom):
            bonferroni_test(TestBonferroni.wide_heavy_dataset())
        assert threading.active_count() == before

    def test_every_block_runs_once_on_more_threads_than_cores(self, monkeypatch):
        data = TestBonferroni.wide_heavy_dataset()
        self.recording(monkeypatch, 1, 16)
        one = bonferroni_test(data)
        taken = []
        built = self.recording(monkeypatch, 8, 16, lambda kernel, ks: taken.append(ks.start))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            many = bonferroni_test(data)
        finally:
            sys.setswitchinterval(interval)
        *blocks, winner = built
        assert len(blocks) == 8
        assert winner == (1, threading.current_thread())
        assert sorted(taken) == list(range(0, data.p, 2))
        assert same_bits(many.p_values, one.p_values)
        assert same_bits(many.statistics, one.statistics)
        assert same_bits(many.best.if_values, one.best.if_values)

    def test_cores_are_the_ones_this_process_may_run_on(self):
        want = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        assert onestep._cores() == want >= 1

    def test_workers_run_under_the_callers_errstate(self, monkeypatch):
        # numpy's errstate does not carry into a new thread by itself
        monkeypatch.setattr(onestep, "_cores", lambda: 2)
        barrier = threading.Barrier(2)
        seen = []

        def step(kernel, cols):
            if cols.start < 2 * len(cols):  # the first two blocks, one on each thread
                barrier.wait(timeout=30)
                seen.append((threading.current_thread() is threading.main_thread(),
                             np.geterr()["divide"], np.geterrcall()))

        def handler(kind, flag):
            pass

        with np.errstate(divide="call", call=handler):
            onestep._over_blocks(2 * BLOCK_COLUMNS, lambda width: None, step)
        assert sorted(seen) == [(False, "call", handler), (True, "call", handler)]


class TestOracle:
    def test_power_under_single_active_predictor(self):
        spec = ScenarioSpec(model="A1", n=500, p=5, seed=41)
        report = monte_carlo_rejection(spec, "oracle", reps=500, parallelism=2)
        assert report.rejection_rate >= 0.5

    def test_nominal_size_under_null(self):
        spec = ScenarioSpec(model="N", n=500, p=5, seed=42)
        report = monte_carlo_rejection(spec, "oracle", reps=500, parallelism=2)
        assert 0.03 <= report.rejection_rate <= 0.08


class TestConservativeVariance:
    def test_dominates_plain_variance_when_grid_hits_cov(self, rng):
        data = random_dataset(rng)
        r = one_step(data, 0)
        bundle, _, _, _ = column_bundle(data)
        m_bound = 2.0 * abs(float(bundle.cov_u_e[0]))
        got = conservative_variance(data, 0, m_bound=m_bound)
        assert got >= r.sigma_hat ** 2 - 1e-12

    def test_monotone_on_nested_grids(self, rng):
        data = random_dataset(rng)
        small = conservative_variance(data, 0, m_bound=0.5)
        large = conservative_variance(data, 0, m_bound=1.0)
        assert large >= small - 1e-15

    def test_matches_bruteforce_oracle(self, rng):
        for _ in range(10):
            data = random_dataset(rng, n=12, p=2)
            got = conservative_variance(data, 1, m_bound=0.8)
            # the endpoints alone, and a fine grid that finds nothing larger
            for grid_size in (3, 101):
                want = oracles.conservative_variance(
                    list(data.x), list(data.delta), list(data.predictors[:, 1]), 0.8, grid_size
                )
                assert got == pytest.approx(want, abs=1e-11)

    def test_default_bound_on_responses_that_do_not_vary_is_a_degeneracy(self):
        # every row censored: every predicted response is 0
        data = ingest([[0.5 + 0.1 * i, 0, (-1) ** i * (1 + i)] for i in range(12)],
                      standardize=False)
        with pytest.raises(DegeneracyError, match="^default m_bound is 0.0: predicted "):
            conservative_variance(data, 0)
        with pytest.raises(DegeneracyError):
            one_step(data, 0)

    def test_default_bound_is_positive_and_finite(self, rng):
        data = random_dataset(rng)
        got = conservative_variance(data, 0)
        assert np.isfinite(got) and got > 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowIsADegeneracy:
    """Raw-scale predictors of order 1e120 overflow the influence values to
    NaN.  Every floor fails on NaN, so each entry point raises, without a
    RuntimeWarning, where it used to return NaN."""

    @staticmethod
    def overflowing_dataset():
        table = np.loadtxt(os.path.join(os.path.dirname(__file__), "data", "toy_screen.csv"),
                           delimiter=",", skiprows=1)
        table[:, 2:] *= 1e120
        return ingest(table, standardize=False)

    @pytest.mark.parametrize("run,message", [
        (lambda data: one_step(data, 0), "^one-step forms disagree by nan for predictor 0$"),
        (bonferroni_test, "^one-step forms disagree by nan for predictor 0$"),
        (lambda data: conservative_variance(data, 0), "^conservative variance of predictor 0 "
                                                      r"is not finite: second moments \[nan, nan\]$"),
        (lambda data: conservative_variance(data, 1, m_bound=1.0),
         "^conservative variance of predictor 1 is not finite"),
        (lambda data: multi_ordering_test(data, variant="full"), "^influence dispersion nan "),
        (lambda data: multi_ordering_test(data, variant="prefix"), "^influence dispersion nan "),
    ], ids=["one_step", "bonferroni_test", "conservative_variance", "conservative_variance_m_bound",
            "multi_ordering_full", "multi_ordering_prefix"])
    def test_raises_a_degeneracy(self, run, message):
        with pytest.raises(DegeneracyError, match=message):
            run(self.overflowing_dataset())
