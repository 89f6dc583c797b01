from typing import NamedTuple

import numpy as np
import pytest

import oracles
import reference_kernel
from survscreen import residual_life, synthetic_response
from survscreen.dataset import ingest
from survscreen.residual_life import EPS_VAR, AtRiskFit, suffix_sweep

from conftest import random_dataset, same_bits


def ols_line(u, y):
    b = np.cov(u, y, bias=True)[0, 1] / np.var(u)
    return y.mean() + b * (u - u.mean())


class Fitted(NamedTuple):
    knots: np.ndarray
    intercepts: np.ndarray
    slopes: np.ndarray
    u_centers: np.ndarray


def fit_block(x, delta, y, U):
    """The at-risk fit of an (n x b) block: its knots and intercepts, and
    the block's slopes and u_centers."""
    at_risk = AtRiskFit(x, delta, y, U.shape[1])
    return Fitted(at_risk.knots, at_risk.intercepts, *at_risk.fit(U))


def fit(data, y, k=0):
    return fit_block(data.x, data.delta, y, data.predictors[:, [k]])


def predict(model, u, s, c=0):
    """The fitted block's prediction for column c at paired (u, s), read from
    the coefficient row that covers each s: 0 for s = -inf, else that of the
    largest knot <= s."""
    idx = np.searchsorted(model.knots, np.asarray(s, dtype=np.float64), side="right")
    centered = np.asarray(u) - model.u_centers[idx, c]
    return model.intercepts[idx, 0] + model.slopes[idx, c] * centered


def oracle_at(x, y, u, u0, s):
    """Defining at-risk regression prediction at (u0, s)."""
    a, b, center = oracles.residual_coeffs(list(x), list(y), list(u), s)
    return a + b * (u0 - center)


class TestExactFormula:
    def test_hand_example_at_interior_time(self):
        # the censoring at 2 puts a knot there; its risk set {2, 3} is the one of s = 1.5
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 2.0, 3.0])
        u = np.array([0.0, 1.0, 2.0])
        model = fit_block(x, np.array([1, 0, 1]), y, u[:, None])
        assert predict(model, 0.0, 2.0) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert predict(model, 2.0, 2.0) == pytest.approx(19.0 / 6.0, abs=1e-12)
        assert oracle_at(x, y, u, 0.0, 1.5) == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_minus_inf_is_ols(self, rng):
        u = rng.standard_normal(30)
        y = 2.0 * u + rng.standard_normal(30)
        x = rng.exponential(1.0, 30)
        delta = (rng.uniform(size=30) > 0.3).astype(int)
        model = fit_block(x, delta, y, u[:, None])
        got = predict(model, u, np.full(30, -np.inf))
        assert np.allclose(got, ols_line(u, y), atol=1e-12)

    def test_degenerate_risk_set_returns_intercept(self):
        # identical u on the full risk set floors the variance
        x = np.array([1.0, 2.0, 3.0])
        y = np.array([1.0, 4.0, 7.0])
        u = np.array([5.0, 5.0, 5.0])
        model = fit_block(x, np.array([1, 1, 1]), y, u[:, None])
        assert predict(model, 99.0, 0.5) == pytest.approx(4.0)


class TestCachedModel:
    def test_knots_are_censoring_times_and_minus_inf_row_is_ols(self):
        data = ingest(
            [[1, 0, 0.5], [2, 1, -1.0], [2, 0, 0.3], [4, 1, 1.2]], standardize=False
        )
        y = synthetic_response(data)
        model = fit(data, y)
        assert np.array_equal(model.knots, [1.0, 2.0])
        u = data.predictors[:, 0]
        assert np.allclose(
            predict(model, u, np.full(data.n, -np.inf)), ols_line(u, y), atol=1e-12
        )

    def test_cache_exact_at_knots_and_below(self, rng):
        for _ in range(30):
            data = random_dataset(rng)
            y = synthetic_response(data)
            u = data.predictors[:, 0]
            model = fit(data, y)
            below = (data.x.min() if len(model.knots) == 0 else model.knots[0]) - 1.0
            for u0 in rng.standard_normal(3):
                want_ols = oracle_at(data.x, y, u, u0, -np.inf)
                assert predict(model, u0, -np.inf) == pytest.approx(want_ols, abs=1e-11)
                assert predict(model, u0, below) == pytest.approx(want_ols, abs=1e-11)
                for s in model.knots:
                    assert predict(model, u0, s) == pytest.approx(
                        oracle_at(data.x, y, u, u0, s), abs=1e-11
                    )

    def test_piecewise_constant_between_knots(self, rng):
        for _ in range(10):
            data = random_dataset(rng, n=20)
            y = synthetic_response(data)
            model = fit(data, y)
            if len(model.knots) == 0:
                continue
            edges = np.concatenate((model.knots, [model.knots[-1] + 1.0]))
            for _ in range(100):
                seg = int(rng.integers(0, len(model.knots)))
                lo, hi = edges[seg], edges[seg + 1]
                s1, s2 = rng.uniform(lo, hi, 2)
                u0 = float(rng.standard_normal())
                assert predict(model, u0, s1) == predict(model, u0, s2)

    def test_matches_oracle_rows(self, rng):
        for _ in range(25):
            data = random_dataset(rng)
            y = synthetic_response(data)
            u = data.predictors[:, 0]
            model = fit(data, y)
            rows = oracles.residual_model(list(data.x), list(data.delta), list(y), list(u))
            probes = np.concatenate((model.knots, rng.uniform(data.x.min() - 1, data.x.max() + 1, 10)))
            for s in probes:
                for u0 in (-0.7, 1.3):
                    assert predict(model, u0, float(s)) == pytest.approx(
                        oracles.residual_eval(rows, u0, float(s)), abs=1e-11
                    )

    def test_block_columns_match_single_column_fits(self, rng):
        for _ in range(10):
            data = random_dataset(rng, p=5)
            y = synthetic_response(data)
            block = fit_block(data.x, data.delta, y, data.predictors)
            for k in range(data.p):
                single = fit(data, y, k)
                assert np.array_equal(block.intercepts, single.intercepts)
                assert np.array_equal(block.slopes[:, k], single.slopes[:, 0])
                assert np.array_equal(block.u_centers[:, k], single.u_centers[:, 0])

    def test_uniform_boundedness(self, rng):
        for _ in range(20):
            data = random_dataset(rng)
            y = synthetic_response(data)
            u = data.predictors[:, 0]
            model = fit(data, y)
            bound = np.abs(y).max() * (1.0 + 2.0 * np.abs(u).max() / EPS_VAR)
            grid_u = rng.uniform(u.min(), u.max(), 15)
            grid_s = rng.uniform(data.x.min() - 1, data.x.max() + 1, 15)
            vals = predict(model, grid_u, grid_s)
            assert np.all(np.isfinite(vals))
            assert np.all(np.abs(vals) <= bound)

    def test_fit_is_pure(self, rng):
        data = random_dataset(rng)
        y = synthetic_response(data)
        m1 = fit(data, y)
        m2 = fit(data, y)
        assert np.array_equal(m1.intercepts, m2.intercepts)
        assert np.array_equal(m1.slopes, m2.slopes)
        assert predict(m1, 0.3, 1.0) == predict(m2, 0.3, 1.0)

    def test_variance_floor_flag(self):
        model = fit_block(
            np.array([1.0, 2.0, 3.0]),
            np.array([1, 0, 1]),
            np.array([1.0, 0.0, 3.0]),
            np.array([[4.0], [4.0], [4.0]]),
        )
        assert model.slopes[0, 0] == 0.0
        # intercept-only: prediction is the indicator mean of y
        assert predict(model, 123.0, -np.inf) == pytest.approx(4.0 / 3.0)


class TestSuffixSweep:
    """The row sweep and cumsum give the at-risk sums bit for bit, so the
    block width that chooses between them changes speed only."""

    @staticmethod
    def reversed_cumsum_at(rows, starts):
        zero = np.zeros((1, rows.shape[1]))
        padded = np.concatenate((np.cumsum(rows[::-1], axis=0)[::-1], zero))
        return padded[starts]

    def test_equals_the_reversed_cumsum(self, rng):
        for n in (1, 2, 5, 37, 200):
            rows = rng.standard_normal((n, 12)) * 10.0 ** rng.integers(-8, 9, 12)
            rows[-1, :4] = -0.0  # a leading -0.0 stays -0.0
            rows[:, 4] = -0.0
            buf = np.zeros((n + 1, 12))  # the row of zeros below reads as starts == n
            buf[:n] = rows
            assert suffix_sweep(buf[:n]).base is buf
            # tied starts, and starts at n
            starts = np.sort(np.concatenate(([0, 0], rng.integers(0, n + 1, 6), [n, n])))
            assert same_bits(buf.take(starts, 0), self.reversed_cumsum_at(rows, starts))
            assert np.signbit(buf[n - 1, :5]).all()

    @pytest.mark.parametrize("threshold", [0, 10 ** 9], ids=["sweep", "cumsum"])
    def test_fit_equals_the_reference_fit(self, rng, monkeypatch, threshold):
        monkeypatch.setattr(residual_life, "SWEEP_MIN_COLUMNS", threshold)
        for _ in range(20):
            n = int(rng.integers(2, 120))
            data = random_dataset(rng, n=n, p=int(rng.integers(1, 90)),
                                  censor=float(rng.uniform(0.0, 0.8)))
            # tied times, and the smallest time censored: starts 0 twice
            x = np.round(data.x, 1)
            delta = data.delta.copy()
            delta[np.argmin(x)] = 0
            y = synthetic_response(ingest(np.column_stack((x, delta, data.predictors)),
                                          standardize=False))
            got = fit_block(x, delta, y, data.predictors)
            knots, a, slope, ubar = reference_kernel.fit_residual_life(x, delta, y,
                                                                       data.predictors)
            assert same_bits(got.knots, knots) and same_bits(got.intercepts, a)
            assert same_bits(got.slopes, slope) and same_bits(got.u_centers, ubar)
