import math

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from survscreen import (
    bonferroni_test,
    conservative_variance,
    one_step,
)
from survscreen.censoring import fit_censoring_km, synthetic_response
from survscreen.dataset import ingest
from survscreen._normal import MAXLOG
from survscreen.errors import DegeneracyError
from survscreen.onestep import (
    BLOCK_COLUMNS,
    NuisanceBundle,
    Z_95,
    _raise_first,
    _variance_floor,
    influence_block,
    influence_values,
    two_sided_p,
    z_value,
)
from survscreen.residual_life import ResidualLifeModel, fit_residual_life_arrays
from survscreen.simulate import ScenarioSpec, generate_scenario, monte_carlo_rejection

from conftest import random_dataset


def constant_model(value):
    return ResidualLifeModel(
        np.array([]), np.array([[value]]), np.array([[0.0]]), np.array([[0.0]])
    )


def toy_bundle(km, u_mean=0.0, u_var=1.0, e_mean=1.0, cov_u_e=0.5, model=None):
    return NuisanceBundle(
        km=km, rl=model or constant_model(1.0), u_mean=np.array([u_mean]),
        u_var=np.array([u_var]), e_mean=np.array([e_mean]), cov_u_e=np.array([cov_u_e]),
    )


def pieces(bundle, u, x, delta, y=0.0):
    """(ipw, car) of the block kernel for one observation of a one-column block."""
    ipw, car = influence_values(
        bundle, np.array([[u]]), np.array([x]), np.array([delta]), np.array([y])
    )
    return float(ipw[0, 0]), float(car[0, 0])


def column_bundle(data, k=0):
    """Full-sample nuisances and (ipw, car) for column k as a block of one."""
    km = fit_censoring_km(data.x, data.delta)
    y = synthetic_response(data, km)
    bundle, ipw, car = influence_block(data.predictors[:, [k]], data.x, data.delta, y, km)
    return bundle, ipw[:, 0], car[:, 0], y


def ksv_slope(u, y):
    """cov(U, Y) / var(U) as the residual-life kernel's slope at s = -inf."""
    n = len(u)
    model = fit_residual_life_arrays(np.zeros(n), np.ones(n), y, np.asarray(u)[:, None])
    return float(model.slopes[0, 0])


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
        bundle = toy_bundle(km)
        assert pieces(bundle, 1.0, 2.0, 1, 3.0)[0] == pytest.approx(1.5, abs=1e-14)

    def test_ipw_vanishes_at_mean(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([1, 1]))
        bundle = toy_bundle(km)
        assert pieces(bundle, 0.0, 2.0, 1, 3.7)[0] == 0.0

    def test_car_no_censoring_vanishes(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([1, 1]))
        bundle = toy_bundle(km)
        assert pieces(bundle, 1.3, 2.0, 1)[1] == 0.0

    def test_car_vanishes_at_mean(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([0, 1]))
        bundle = toy_bundle(km)
        assert pieces(bundle, 0.0, 2.0, 1)[1] == 0.0

    def test_car_two_observation_composition(self):
        # constant prediction 1; event observation with (u - ubar) / var = 2
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([0, 1]))
        bundle = toy_bundle(km)
        assert pieces(bundle, 2.0, 2.0, 1)[1] == pytest.approx(-1.0, abs=1e-14)

    def test_star_is_difference(self, rng):
        # one_step's influence values are the kernel's ipw - car, and match the oracle
        for _ in range(20):
            data = random_dataset(rng)
            _, ipw, car, _ = column_bundle(data)
            assert np.array_equal(one_step(data, 0).if_values, ipw - car)
            want = oracles.one_step(list(data.x), list(data.delta), list(data.predictors[:, 0]))
            assert np.allclose(ipw - car, want["if_values"], atol=1e-12)
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([0, 1]))
        assert pieces(toy_bundle(km), 0.0, 2.0, 1, 4.2) == (0.0, 0.0)  # u at the mean

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
            bundle, _, _ = influence_block(U, x, delta, x, km)
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
            want_p = 2.0 * (1.0 - norm.cdf(abs(math.sqrt(r.n_used) * r.s_onestep / r.sigma_hat)))
            assert r.p_value == pytest.approx(want_p, abs=1e-12)

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

    def test_default_bound_is_positive_and_finite(self, rng):
        data = random_dataset(rng)
        got = conservative_variance(data, 0)
        assert np.isfinite(got) and got > 0.0
