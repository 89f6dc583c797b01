import numpy as np
import pytest

import oracles
from survscreen import survival_at, synthetic_response
from survscreen.censoring import KaplanMeierFit, fit_censoring_km
from survscreen.dataset import ingest
from survscreen.errors import DegeneracyError
from survscreen.onestep import _Martingale
from survscreen.simulate import ScenarioSpec, generate_scenario

from conftest import random_dataset, same_bits


class TestCensoringFit:
    def test_no_censoring_gives_unit_survival(self):
        km = fit_censoring_km(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 1]))
        for arr in (km.jump_times, km.survival_after, km.hazard_increments):
            assert same_bits(arr, np.empty(0))
        assert np.all(survival_at(km, [0.5, 2.0, 99.0]) == 1.0)

    def test_hand_product_limit(self):
        km = fit_censoring_km(np.array([1.0, 2.0, 3.0]), np.array([0, 1, 0]))
        assert survival_at(km, 2.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert survival_at(km, 3.5) == 0.0
        assert np.array_equal(km.hazard_increments, [1.0 / 3.0, 1.0])

    def test_event_censoring_tie_uses_left_limit(self):
        km = fit_censoring_km(np.array([1.0, 1.0]), np.array([0, 1]))
        assert survival_at(km, 1.0) == 1.0  # censoring at t does not affect G(t)
        assert survival_at(km, 1.0 + 1e-12) == 0.5

    def test_matches_oracle_on_random_data(self, rng):
        for _ in range(50):
            data = random_dataset(rng)
            km = fit_censoring_km(data.x, data.delta)
            oracle = oracles.km_censoring(data.x, data.delta)
            assert np.allclose(km.jump_times, oracle[0])
            assert np.allclose(km.hazard_increments, oracle[1])
            assert np.allclose(km.survival_after, oracle[2])
            probes = rng.uniform(data.x.min() - 1, data.x.max() + 1, 20)
            got = survival_at(km, probes)
            want = [oracles.g_at(oracle, t) for t in probes]
            assert np.allclose(got, want, atol=1e-14)

    def test_survival_monotone_in_unit_interval(self, rng):
        for _ in range(30):
            data = random_dataset(rng)
            km = fit_censoring_km(data.x, data.delta)
            s = km.survival_after
            assert np.all(s <= 1.0) and np.all(s >= 0.0)
            assert np.all(np.diff(s) <= 1e-15)
            if len(km.jump_times):
                assert survival_at(km, km.jump_times[0]) == 1.0

    def test_prefix_survival_at_an_event_covers_its_at_risk_share(self, rng):
        # j G(x-) >= Y(x) at every event x of a sample of j rows, with Y(x)
        # its rows at time >= x: the product-limit G(x-) times the event
        # survival S(x-) <= 1 is Y(x) / j.  So j G(x-) >= 1 at every event
        # and no response of a screen's prefix meets the censoring floor.
        for _ in range(2000):
            j = int(rng.integers(2, 301))
            x = np.round(rng.exponential(1.0, j), int(rng.integers(0, 3)))
            delta = (rng.random(j) < rng.uniform(0.02, 1.0)).astype(np.int64)
            if rng.random() < 0.3:  # an all-censored tail
                delta[x >= np.quantile(x, rng.uniform(0.5, 1.0))] = 0
            events = x[delta == 1]
            g = survival_at(fit_censoring_km(x, delta), events)
            at_risk = (x[None, :] >= events[:, None]).sum(axis=1)
            assert np.all(j * g >= at_risk * (1.0 - 1e-12))

    def test_administrative_cap_preserves_survival_below_tau(self, rng):
        for _ in range(20):
            n = 40
            u = rng.standard_normal((n, 1))
            t = rng.standard_normal(n)
            status = (rng.uniform(size=n) > 0.3).astype(float)
            table = np.column_stack((t, status, u))
            full = ingest(table, tau_rule="max", standardize=False)
            capped = ingest(table, tau_rule="q:0.8", standardize=False)
            km_full = fit_censoring_km(full.x, full.delta)
            km_capped = fit_censoring_km(capped.x, capped.delta)
            probes = np.linspace(t.min() - 0.5, capped.tau - 1e-9, 25)
            assert np.allclose(
                survival_at(km_full, probes), survival_at(km_capped, probes), atol=1e-14
            )


class TestSyntheticResponse:
    def test_censored_rows_get_zero_and_unit_weights_passthrough(self):
        data = ingest([[1, 1, 0.1], [2, 0, 0.2], [3, 1, 0.3]], standardize=False)
        km = fit_censoring_km(data.x, data.delta)
        y = synthetic_response(data, km)
        assert y[1] == 0.0

        uncensored = ingest([[1, 1, 0.1], [2, 1, 0.2]], standardize=False)
        y2 = synthetic_response(uncensored)
        assert np.array_equal(y2, uncensored.x * uncensored.delta)

    def test_hand_weight(self):
        data = ingest([[1, 0, 0.1], [2, 1, 0.2], [3, 0, 0.3]], standardize=False)
        y = synthetic_response(data)
        assert y[1] == pytest.approx(3.0, abs=1e-12)

    def test_weight_floor_raises(self):
        data = ingest([[1, 1, 0.1], [2, 1, 0.2]], standardize=False)
        tiny = KaplanMeierFit(np.array([0.5]), np.array([1e-12]), np.array([1.0 - 1e-12]))
        with pytest.raises(DegeneracyError, match="tau"):
            synthetic_response(data, tiny)

    def test_mean_estimates_uncensored_mean(self):
        # light censoring, n=2000: |mean(Y) - mean(T)| < 0.1 in >= 19/20 seeds
        hits = 0
        for seed in range(20):
            spec = ScenarioSpec(model="A1", n=2000, p=2, seed=seed, censoring="light")
            data, _ = generate_scenario(spec)
            spec_u = ScenarioSpec(model="A1", n=2000, p=2, seed=seed, censoring="none")
            uncensored, _ = generate_scenario(spec_u)
            y = synthetic_response(data)
            hits += abs(y.mean() - uncensored.x.mean()) < 0.1
        assert hits >= 19


def integrand_coefficients(km, e):
    """(knots, intercepts, slopes, u_centers) whose prediction at a censoring
    jump s is e(u, s) = e(0, s) + e_u * u, for an integrand e linear in u;
    the martingale integral only evaluates it at those jumps, never at the
    s = -inf row."""
    t = km.jump_times
    at_zero = np.array([[0.0]] + [[e(0.0, float(s))] for s in t])
    slope = e(1.0, 0.0) - e(0.0, 0.0)
    return t, at_zero, np.full(at_zero.shape, slope), np.zeros(at_zero.shape)


def integrate(e, km, u, x, delta):
    """The kernel's martingale integrals of e, one per observation."""
    x = np.asarray(x, dtype=np.float64)
    U = np.broadcast_to(np.asarray(u, dtype=np.float64), x.shape)[:, None].copy()
    knots, intercepts, slopes, u_centers = integrand_coefficients(km, e)
    out, t1, t2 = (np.empty(U.shape) for _ in range(3))
    mart = _Martingale(knots, km, x, np.asarray(delta), 1)
    return mart.values(intercepts, slopes, u_centers, U, out, t1, t2)[:, 0]


class TestMartingaleIntegral:
    def test_no_censoring_vanishes(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([1, 1]))
        # +0.0 at every row, also where the slope term is 0.0 * u = -0.0
        got = integrate(lambda u, s: 3.3, km, [-1.5, 2.0], [1.0, 2.0], [1, 1])
        assert same_bits(got, np.zeros(2))

    def test_single_censored_observation_cancels(self):
        km = fit_censoring_km(np.array([1.0]), np.array([0]))
        assert integrate(lambda u, s: 5.0, km, 0.0, [1.0], [0])[0] == 0.0

    def test_two_observation_example(self):
        km = fit_censoring_km(np.array([1.0, 2.0]), np.array([0, 1]))
        got = integrate(lambda u, s: 1.0, km, 0.0, [2.0], [1])[0]
        assert got == pytest.approx(-0.5, abs=1e-15)

    def test_matches_double_loop_oracle(self, rng):
        for _ in range(40):
            data = random_dataset(rng, n=int(rng.integers(4, 21)))
            km = fit_censoring_km(data.x, data.delta)
            oracle_km = oracles.km_censoring(data.x, data.delta)
            coef = rng.standard_normal(3)

            def e(u, s):
                return coef[0] + coef[1] * u + coef[2] * s

            u = data.predictors[:, 0]
            got = integrate(e, km, u, data.x, data.delta)
            for i in range(data.n):
                want = oracles.mart_integral(e, float(u[i]), data.x[i], data.delta[i], oracle_km)
                assert got[i] == pytest.approx(want, abs=1e-12)

    def test_time_only_integrand_sums_to_zero(self, rng):
        # risk-set weighting makes the summed residuals vanish identically
        for _ in range(30):
            data = random_dataset(rng, n=int(rng.integers(4, 21)))
            km = fit_censoring_km(data.x, data.delta)
            coef = rng.standard_normal(2)

            def e(u, s):
                return coef[0] + coef[1] * s

            total = integrate(e, km, 0.0, data.x, data.delta).sum()
            assert total == pytest.approx(0.0, abs=1e-10)
