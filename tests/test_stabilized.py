import itertools
import math
import re
import tracemalloc
import warnings
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest
from scipy.stats import norm

import oracles
from survscreen import (
    multi_ordering_test,
    select_predictor,
    stabilized_estimate,
)
from survscreen import censoring, onestep, stabilized
from survscreen._rng import stream
from survscreen.censoring import _weighted_response, fit_censoring_km, survival_at
from survscreen.dataset import ingest
from survscreen.errors import DegeneracyError, InputError, SurvScreenError
from survscreen.onestep import BLOCK_COLUMNS, _Kernel, normal_interval, plugin_slope
from survscreen.stabilized import (StabilizedResult, _prefix_variance, _Weights, _WindowBound,
                                   default_qn)

from conftest import assert_same, random_dataset, run_python, same_bits


def fixed_example():
    """n=8, p=2, two censored rows; used for full-trace oracle comparison."""
    x = [0.8, 1.5, 0.6, 2.2, 1.1, 2.9, 1.9, 2.5]
    delta = [1, 0, 1, 1, 1, 0, 1, 1]
    u1 = [0.4, -1.2, 0.9, 1.8, -0.3, 2.1, 1.0, 1.6]
    u2 = [-0.5, 0.3, 1.1, -0.9, 0.8, -1.4, 0.2, 0.6]
    return ingest(np.column_stack((x, delta, u1, u2)), standardize=False)


def assert_matches_oracle(data, q, variant, tol=1e-10):
    got = stabilized_estimate(data, q_n=q, variant=variant)
    want = oracles.stabilized(
        list(data.x), list(data.delta), [list(r) for r in data.predictors], q, variant
    )
    assert abs(got.s_star - want["s_star"]) < tol
    assert abs(got.sigma_bar - want["sigma_bar"]) < tol
    for i, ((j, k, m, sigma, _raw), inc) in enumerate(zip(want["steps"], want["increments"])):
        assert (q + i, got.k[i], got.m[i]) == (j, k, m)
        assert abs(got.sigma[i] - sigma) < tol
        assert abs(got.increment[i] - inc) < tol


class TestSelection:
    def test_perfect_predictor_always_selected(self):
        # high-variance noise keeps its slopes well below the exact slope 1
        rng = np.random.default_rng(5)
        t = rng.exponential(2.0, 25)
        noise = 100.0 * rng.standard_normal((25, 3))
        data = ingest(np.column_stack((t, np.ones(25), t, noise)), standardize=False)
        for j in range(4, 26):
            assert select_predictor(data, j) == (0, 1)

    def test_mirrored_column_tie_breaks_low(self, rng):
        base = random_dataset(rng, p=1, standardize=True)
        mirrored = ingest(
            np.column_stack((base.x, base.delta, base.predictors[:, 0], -base.predictors[:, 0])),
            standardize=False,
        )
        k, m = select_predictor(mirrored)
        assert k == 0

    def test_matches_per_predictor_loop_oracle(self, rng):
        for _ in range(30):
            data = random_dataset(rng)
            j = int(rng.integers(3, data.n + 1))
            got = select_predictor(data, j)
            want = oracles.select(
                list(data.x), list(data.delta), [list(r) for r in data.predictors], j
            )
            assert got == want


class TestStabilizedEstimate:
    def test_single_term_when_qn_is_n_minus_1(self, rng):
        data = random_dataset(rng, n=12)
        r = stabilized_estimate(data, q_n=11, variant="full")
        assert len(r.k) == 1
        assert r.weight[0] == pytest.approx(1.0)
        assert r.sigma_bar == pytest.approx(r.sigma[0])
        assert r.s_star == pytest.approx(r.increment[0])

    def test_identical_columns_select_first(self, rng):
        base = random_dataset(rng, p=1)
        u = base.predictors[:, 0]
        data = ingest(
            np.column_stack((base.x, base.delta, u, u, u)), standardize=False
        )
        r = stabilized_estimate(data, variant="full")
        assert all(r.k == 0)

    def test_fixed_example_matches_oracle_both_variants(self):
        data = fixed_example()
        assert_matches_oracle(data, q=4, variant="full")
        assert_matches_oracle(data, q=4, variant="prefix")

    def test_random_instances_match_oracle(self, rng):
        for i in range(30):
            data = random_dataset(rng)
            q = int(rng.integers(2, data.n))
            assert_matches_oracle(data, q, "full" if i % 2 == 0 else "prefix")

    def test_trace_invariants(self, rng):
        data = random_dataset(rng, n=25)
        r = stabilized_estimate(data, variant="full")
        q = default_qn(25)
        assert {len(a) for a in (r.k, r.m, r.sigma, r.weight, r.increment)} == {25 - q}
        incs, sigmas, weights = r.increment, r.sigma, r.weight
        assert r.s_star == pytest.approx(incs.mean(), abs=1e-12)
        assert r.sigma_bar == pytest.approx(len(sigmas) / np.sum(1.0 / sigmas), abs=1e-12)
        assert np.allclose(weights, r.sigma_bar / sigmas, atol=1e-12)
        m = 25 - q
        assert r.statistic == math.sqrt(m) * r.s_star / r.sigma_bar
        want_p = 2.0 * (1.0 - norm.cdf(abs(math.sqrt(m) * r.s_star / r.sigma_bar)))
        assert r.p_value == pytest.approx(want_p, abs=1e-12)
        assert r.ci_low <= r.s_star <= r.ci_high

    def test_scaling_invariance_before_standardization(self, rng):
        n = 30
        u = rng.standard_normal((n, 3))
        t = u[:, 0] * 0.7 + rng.standard_normal(n)
        c = t + rng.standard_normal(n) * 0.5 + 1.0
        x = np.minimum(t, c)
        status = (t <= c).astype(float)

        def run(scale):
            cols = u.copy()
            cols[:, 0] *= scale
            data = ingest(np.column_stack((x, status, cols)), standardize=True)
            return stabilized_estimate(data, variant="full")

        base, up, flip = run(1.0), run(2.0), run(-2.0)
        assert np.array_equal(up.k, base.k)
        assert np.array_equal(up.m, base.m)
        assert abs(up.s_star - base.s_star) < 1e-10
        assert np.array_equal(flip.k, base.k)
        assert np.array_equal(flip.m, np.where(base.k == 0, -base.m, base.m))
        assert abs(flip.s_star - base.s_star) < 1e-10

    def test_all_censored_hits_dispersion_floor(self):
        rng = np.random.default_rng(9)
        data = ingest(
            np.column_stack((rng.exponential(1, 12), np.zeros(12), rng.standard_normal(12))),
            standardize=False,
        )
        with pytest.raises(DegeneracyError, match="dispersion"):
            stabilized_estimate(data, variant="full")

    def test_validation_errors(self, rng):
        data = random_dataset(rng, n=10)
        with pytest.raises(InputError, match="q_n"):
            stabilized_estimate(data, q_n=1)
        with pytest.raises(InputError, match="q_n"):
            stabilized_estimate(data, q_n=10)
        with pytest.raises(InputError, match="q_n must be an integer, got 5.9"):
            stabilized_estimate(data, q_n=5.9)
        assert stabilized_estimate(data, q_n=5.0).q_n == 5
        with pytest.raises(InputError, match="variant"):
            stabilized_estimate(data, variant="both")
        with pytest.raises(InputError, match="permutation"):
            stabilized_estimate(data, ordering=np.zeros(10, dtype=int))

    def test_default_qn_is_accepted_from_three_observations(self, rng):
        data = random_dataset(rng, n=3, censor=0.0)
        assert stabilized_estimate(data).q_n == default_qn(3) == 2
        two = random_dataset(rng, n=2, censor=0.0)
        for q_n in (None, 2):
            with pytest.raises(InputError, match=r"^the stabilized screen needs at least 3 "
                                                 r"observations, got 2$"):
                stabilized_estimate(two, q_n=q_n)


class TestOrderingSemantics:
    def test_explicit_ordering_equals_oracle_on_permuted_rows(self, rng):
        for variant in ("full", "prefix"):
            data = random_dataset(rng, n=14)
            perm = rng.permutation(14)
            got = stabilized_estimate(data, q_n=5, variant=variant, ordering=perm)
            want = oracles.stabilized(
                list(data.x[perm]),
                list(data.delta[perm]),
                [list(r) for r in data.predictors[perm]],
                5,
                variant,
            )
            assert abs(got.s_star - want["s_star"]) < 1e-10
            assert abs(got.sigma_bar - want["sigma_bar"]) < 1e-10


class TestBenchmarkScaling:
    def test_cost_monotone_and_roughly_linear_in_p(self):
        # memory-bound sizes so the doubling ratio is stable; best of 3 runs
        # of each size, interleaved so that host drift hits both sizes alike,
        # after one untimed run of each (the first BLAS calls after the data
        # are generated can run several times slower)
        import time

        from survscreen.simulate import ScenarioSpec, generate_scenario

        sizes = (20_000, 40_000)
        datasets = [generate_scenario(ScenarioSpec(model="N", n=400, p=p, seed=1))[0]
                    for p in sizes]
        for data in datasets:
            stabilized_estimate(data, variant="full")
        best = [math.inf] * len(sizes)
        for _ in range(3):
            for i, data in enumerate(datasets):
                start = time.perf_counter()
                stabilized_estimate(data, variant="full")
                best[i] = min(best[i], time.perf_counter() - start)

        t_small, t_large = best
        assert t_large >= 0.9 * t_small          # cost nondecreasing in p
        assert t_large <= 2.2 * t_small          # doubling p at most ~doubles cost

    def test_thousand_predictor_screen_budget(self):
        import time

        from survscreen.simulate import ScenarioSpec, generate_scenario

        spec = ScenarioSpec(model="N", error="independent", censoring="light", n=500, p=1000,
                            seed=2)
        data, _ = generate_scenario(spec)
        start = time.perf_counter()
        stabilized_estimate(data, variant="full")
        assert time.perf_counter() - start < 2.0


class TestCiPvalue:
    @staticmethod
    def result(s_star, sigma_bar, n, q, k=()):
        k = np.array(k, dtype=np.intp)
        return StabilizedResult(
            s_star=s_star, sigma_bar=sigma_bar, k=k, m=np.ones(len(k), dtype=np.int64),
            sigma=np.ones(len(k)), weight=np.ones(len(k)), increment=np.zeros(len(k)),
            ci_low=0.0, ci_high=0.0, statistic=math.sqrt(n - q) * s_star / sigma_bar,
            p_value=1.0, q_n=q, variant="full", n=n, alpha=0.05,
        )

    def test_modal_k_counts_and_breaks_ties_low(self):
        r = self.result(0.0, 1.0, 10, 5, k=[5, 2, 5, 2, 7])
        assert r.modal_k() == 2
        assert len(np.unique(r.k)) == 3  # the report's distinct_selected
        for name in ("k", "m", "sigma", "weight", "increment"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(r, name)[0] = 1

    def test_zero_estimate_has_unit_p(self):
        lo, hi, _, p = normal_interval(0.0, 1.0, 200 - 100, 0.05)
        assert p == 1.0
        assert lo == -hi

    def test_quantile_inversion(self):
        m = 100
        s = 1.96 * 2.0 / math.sqrt(m)
        lo, hi, _, p = normal_interval(s, 2.0, m, 0.05)
        assert abs(lo) < 1e-9
        assert p == pytest.approx(0.05, abs=5e-5)

    def test_standard_normal_tail(self):
        lo, hi, _, p = normal_interval(0.3, 1.0, 200 - 100, 0.05)
        assert p == pytest.approx(2.0 * (1.0 - norm.cdf(3.0)), abs=1e-12)


class TestMultiOrdering:
    def test_single_ordering_matches_direct_run(self, rng):
        data = random_dataset(rng, n=20)
        out = multi_ordering_test(data, orderings=1, seed=123)
        from survscreen._rng import stream

        perm = stream(123, 0).permutation(20)
        direct = stabilized_estimate(data, ordering=perm)
        assert out.min_p == direct.p_value
        assert out.best.s_star == direct.s_star
        assert out.reject == (direct.p_value < 0.05)

    def test_bonferroni_arithmetic(self, rng):
        data = random_dataset(rng, n=24)
        out = multi_ordering_test(data, orderings=4, seed=7, alpha=0.05)
        assert out.min_p == min(out.p_values)
        assert out.adjusted_p == min(1.0, 4 * out.min_p)
        assert out.reject == (out.min_p < 0.05 / 4)
        assert out.best_index == int(np.argmin(out.p_values))

    def test_same_seed_reproduces_bitwise(self, rng):
        data = random_dataset(rng, n=22)
        a = multi_ordering_test(data, orderings=3, seed=99)
        b = multi_ordering_test(data, orderings=3, seed=99)
        assert a.p_values == b.p_values
        assert a.best.s_star == b.best.s_star

    def test_thread_count_does_not_change_results(self, rng, tmp_path):
        # p spans three selection blocks, so the products are large enough
        # for the BLAS pool to split them
        data = random_dataset(rng, n=80, p=600)
        table = tmp_path / "table.npy"
        np.save(table, np.column_stack((data.x, data.delta, data.predictors)))
        script = (
            "import sys, numpy as np\n"
            "from survscreen import ingest, multi_ordering_test\n"
            "data = ingest(np.load(sys.argv[1]), standardize=False)\n"
            "out = multi_ordering_test(data, orderings=4, seed=5)\n"
            "print(repr(out.p_values), repr(out.best.s_star))\n"
            "print([[r.k.tolist(), r.m.tolist(), r.sigma.tolist(), r.increment.tolist()]\n"
            "       for r in out.results])\n"
        )
        one = run_python(["-c", script, str(table)], blas_threads=1)
        two = run_python(["-c", script, str(table)], blas_threads=2)
        assert one == two

    @pytest.mark.parametrize("variant", ["full", "prefix"])
    def test_each_ordering_equals_single_ordering_run(self, rng, variant):
        # and every ordering's per-step arrays, and the arrays they view, are read-only
        data = random_dataset(rng, n=40, p=300, censor=0.4)
        out = multi_ordering_test(data, orderings=3, q_n=15, variant=variant, seed=11)
        for r, got in enumerate(out.results):
            want = stabilized_estimate(
                data, q_n=15, variant=variant, ordering=stream(11, r).permutation(40),
            )
            for field in fields(StabilizedResult):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(a, np.ndarray):
                    assert a.dtype == b.dtype and np.array_equal(a, b), field.name
                    for view in (a, a.base):
                        with pytest.raises(ValueError, match="read-only"):
                            view[0] = 1
                else:
                    assert a == b, field.name

    def test_one_normal_calibration_for_all_orderings(self, rng, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return normal_interval(*args)

        monkeypatch.setattr(stabilized, "normal_interval", counted)
        data = random_dataset(rng, n=30, p=4)
        out = multi_ordering_test(data, orderings=10, seed=4)
        assert len(calls) == 1
        assert len(out.p_values) == 10

    @pytest.mark.parametrize("p,orderings,groups", [
        (120, 7, [1] * 7), (280, 10, [2] * 5), (480, 7, [3, 3, 1])])
    @pytest.mark.parametrize("case", ["random", "tied pair", "near-constant"])
    def test_groups_of_orderings_keep_every_bit(self, rng, monkeypatch, p, orderings, groups, case):
        # n = 80 and q_n = 40: an ordering's selection buffers take 40 steps x
        # (12 n + 4 min(p, 256)) bytes, so U, 640 p bytes, holds those of 1, 2
        # and 3 orderings at p = 120, 280 and 480, the last two over two blocks
        n = 80
        if case == "random":
            data = random_dataset(rng, n=n, p=p, censor=0.4)
        elif case == "tied pair":  # across the block boundary when p > BLOCK_COLUMNS
            low = min(p - 1, BLOCK_COLUMNS) - 1
            data = signal_with_noise_columns(rng, n, p, (low, -(low + 1)))
        else:  # TestBlockedSelection's column, floored at every step
            data = signal_with_noise_columns(rng, n, p, (40,))
            table = np.column_stack((data.x, data.delta, data.predictors))
            table[:, 2 + p - 7] = 1e-6 * (data.x + rng.standard_normal(n))
            data = ingest(table, standardize=False)
        sizes = []
        select = stabilized._select_steps

        def counted(U, perms, *args):
            sizes.append(len(perms))
            return select(U, perms, *args)

        monkeypatch.setattr(stabilized, "_select_steps", counted)
        out = multi_ordering_test(data, orderings=orderings, seed=21)
        assert sizes == groups
        for r, got in enumerate(out.results):
            assert_same(got, stabilized_estimate(data, ordering=stream(21, r).permutation(n)))

    def test_weights_in_memory_stay_below_U_plus_four_tables(self):
        # numpy reports its array data to tracemalloc, so the peak repeats
        # exactly; each of the 10 orderings' weights is one n x (n - q_n) table
        n = 400
        data = random_dataset(np.random.default_rng(3), n=n, p=40)
        table = 8 * n * (n - default_qn(n))
        multi_ordering_test(data, orderings=10)  # numpy's first-call allocations
        tracemalloc.start()
        try:
            multi_ordering_test(data, orderings=10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= data.predictors.nbytes + 4 * table


def signal_with_noise_columns(rng, n, p, columns):
    """Survival times driven exactly by one signal v, written into the given
    columns (v, or -v for a negative index); every other column is noise
    with 100 times the variance, so its slope is far smaller."""
    v = rng.standard_normal(n)
    t = np.exp(v)
    c = np.exp(rng.standard_normal(n) + 1.0)
    u = 100.0 * rng.standard_normal((n, p))
    for col in columns:
        u[:, abs(col)] = v if col >= 0 else -v
    return ingest(
        np.column_stack((np.minimum(t, c), (t <= c).astype(float), u)), standardize=False
    )


class TestBlockedSelection:
    @pytest.mark.parametrize("pair,sign", [((255, 256), 1), ((511, -512), 1), ((-511, 512), -1)])
    def test_tied_pairs_across_block_boundaries_select_lower_index(self, rng, pair, sign):
        assert 2 * BLOCK_COLUMNS < 600
        data = signal_with_noise_columns(rng, 50, 600, pair)
        low = min(abs(c) for c in pair)
        out = multi_ordering_test(data, orderings=2, seed=3)
        for result in out.results:
            assert all(result.k == low) and all(result.m == sign)
        for j in (3, 25, 50):
            assert select_predictor(data, j) == (low, sign)

    def test_near_constant_column_in_third_block_is_never_selected(self, rng):
        n, p, k = 50, 600, 2 * BLOCK_COLUMNS + 7
        data = signal_with_noise_columns(rng, n, p, (40,))
        table = np.column_stack((data.x, data.delta, data.predictors))
        # variance of order 1e-12, below the 1e-8 floor: its unfloored slope
        # would be of order 1e6 and win every step
        table[:, 2 + k] = 1e-6 * (data.x + rng.standard_normal(n))
        near_constant = ingest(table, standardize=False)
        result = stabilized_estimate(near_constant, q_n=5, variant="full")
        assert all(result.k == 40)
        for j in (5, 30, 50):
            assert select_predictor(near_constant, j) == oracles.select(
                list(near_constant.x), list(near_constant.delta),
                [list(r) for r in near_constant.predictors], j,
            )


def bound_columns(rng, n, case):
    """n x 40 predictors of one kind the certified bound has to handle."""
    u = rng.standard_normal((n, 40))
    if case == "near-constant":
        u[:, :20] = rng.uniform(-1e3, 1e3, 20) + 10.0 ** rng.uniform(-12, -4, 20) * u[:, :20]
        u[:, 20:25] = 0.1 * rng.integers(1, 9, 5)  # constant, and not exact in binary
    elif case == "large means":  # standardize=False columns
        u = u * 10.0 ** rng.uniform(-3, 1, 40) + rng.uniform(-1e3, 1e3, 40)
    elif case == "standardized":  # means within rounding of 0
        u = (u - u.mean(axis=0)) / u.std(axis=0)
    elif case == "ties":
        u = np.round(u, 0)
    elif case == "duplicates":
        u[:, 20:] = u[:, rng.integers(0, 20, 20)]
    return np.asfortranarray(u)


def ordered_rows(U, perm):
    """U's columns as C-contiguous rows, each in the ordering, as _select_steps
    passes them to _prefix_variance."""
    return np.take(U.T, perm, axis=1, out=np.empty((U.shape[1], len(perm))), mode="clip")


BOUND_CASES = ["normal", "standardized", "near-constant", "large means", "ties", "duplicates"]


class TestCertifiedSelection:
    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_bound_is_below_every_computed_variance(self, rng, case):
        checked = 0
        for n, scale in itertools.product((7, 40, 137, 300), (1.0, 2.0 ** 40, 2.0 ** -40)):
            for first, last in ((2, n - 1), (n // 2, n - 1), (n - 20, n - 1), (n, n)):
                first = max(first, 2)
                if first > last:
                    continue
                steps = last - first + 1  # mostly not a multiple of the window
                U = np.asfortranarray(scale * bound_columns(rng, n, case))
                perms = [rng.permutation(n) for _ in range(3)] if last < n else [np.arange(n)]
                weights = [rng.standard_normal((steps, n)).T for _ in perms]
                bound = _WindowBound(perms, weights, first, steps, U.shape[1])
                lower = bound.lower(U)
                m1, m2 = np.empty((steps, U.shape[1])), np.empty((steps, U.shape[1]))
                for r, perm in enumerate(perms):
                    var = _prefix_variance(ordered_rows(U, perm), first, steps, m1, m2)
                    lower_r = lower[r][np.arange(steps) // stabilized._WINDOW]
                    assert np.all(var >= lower_r)
                    checked += 1
                    if case in ("normal", "standardized") and first >= 100:  # tight enough
                        assert np.all(lower_r > 0.5 * var)
        assert checked >= 108

    @pytest.mark.parametrize("where", ["block", "weights"])
    def test_magnitudes_beyond_float32s_range_take_the_float64_pass(self, rng, where):
        n, steps = 40, 20
        perms = [rng.permutation(n) for _ in range(2)]
        U = bound_columns(rng, n, "normal")
        weights = [rng.standard_normal((steps, n)).T for _ in perms]
        limit = stabilized._SINGLE_RANGE
        if where == "block":
            U[3, 7] = 2 * limit
        else:
            weights[1][5, 2] = -2 * limit
        bound = _WindowBound(perms, weights, n - steps, steps, U.shape[1])
        assert bound.lower(U) is None
        cuts = np.ones((2, steps))
        assert bound.survivors(U, cuts) == [None, None]
        if where == "block":  # a block at the limit is screened
            U[3, 7] = limit
            assert bound.lower(U) is not None

    @pytest.mark.parametrize("case", BOUND_CASES + ["scaled"])
    def test_every_column_whose_slope_reaches_the_cut_survives(self, rng, case):
        # float64 slopes from the full-block product, as the unpruned pass
        # forms them.  A cut at the 4th largest slope drops most columns; at a
        # single step the variance bound is within float32 rounding of the
        # variance, so a cut at the median slope leans on the error terms
        dropped = 0
        for n, first, rank in ((9, 4, -4), (60, 30, -4), (203, 101, -4), (60, 59, 20), (203, 202, 20)):
            steps = n - first
            data = random_dataset(rng, n=n, p=1, censor=0.4)
            U = bound_columns(rng, n, "normal" if case == "scaled" else case)
            if case == "scaled":
                U *= 2.0 ** rng.integers(-40, 41, U.shape[1])
            perms = [rng.permutation(n) for _ in range(3)]
            weights = selection_weights(data.x, data.delta, perms, first, n - 1)
            bound = _WindowBound(perms, weights, first, steps, U.shape[1])
            slopes = []
            for perm, w in zip(perms, weights):
                var = _prefix_variance(ordered_rows(U, perm), first, steps,
                                       np.empty((steps, U.shape[1])), np.empty((steps, U.shape[1])))
                floored = var < stabilized.EPS_VAR
                slopes.append(np.abs(np.divide(w.T @ U, var, out=np.zeros(var.shape),
                                               where=~floored)))
            # the cut at a column's own slope, which that column reaches
            # exactly; over several steps, the first step's cut is 0 in one
            # ordering, which keeps every column
            cuts = np.array([np.sort(s, axis=1)[:, rank] for s in slopes])
            if steps > 1:
                cuts[2, 0] = 0.0
            with np.errstate(all="ignore"):
                kept = bound.survivors(U, cuts)
            for windows, s, cut in zip(kept, slopes, cuts):
                if windows is None:  # a cut that is 0 at every step: the unpruned pass
                    assert not cut.any()
                    continue
                step, col = np.nonzero(s >= cut[:, None])
                assert windows[step // stabilized._WINDOW, col].all()
                dropped += (~windows).sum()
            if steps > 1:
                assert kept[2][0].all()
        assert dropped > 0

    @pytest.mark.parametrize("mean", [0.0, 1e5])
    def test_a_column_at_the_cut_survives_whatever_its_float32_error(self, rng, mean):
        # columns nearly orthogonal to the weights: their float64 numerators
        # are a tiny fraction of |w| |x|, so float32 gets them wrong by far
        # more than the single-step variance bound's slack, and only the
        # error terms keep each column when the cut is its own slope
        n = 203
        data = random_dataset(rng, n=n, p=1, censor=0.3)
        perm = rng.permutation(n)
        (w,) = selection_weights(data.x, data.delta, [perm], n - 1, n - 1)
        g = rng.standard_normal((n, 40))
        g -= np.outer(w[:, 0], w[:, 0] @ g) / (w[:, 0] @ w[:, 0])
        U = np.asfortranarray(mean + g + 10.0 ** rng.uniform(-7, -1, 40) * w)
        bound = _WindowBound([perm], [w], n - 1, 1, U.shape[1])
        var = _prefix_variance(ordered_rows(U, perm), n - 1, 1, np.empty((1, 40)), np.empty((1, 40)))
        slopes = np.abs((w.T @ U) / var)[0]
        for c in range(U.shape[1]):
            with np.errstate(all="ignore"):
                (windows,) = bound.survivors(U, slopes[c:c + 1, None])
            assert windows[0, c]

    @pytest.mark.parametrize("case", ["tied pair", "duplicate", "scaled", "near-duplicate"])
    def test_pruning_changes_no_selection(self, rng, monkeypatch, case):
        # the unpruned float64 pass on every column, where survivors() keeps
        # everything, against the float32 screen with its gathered products
        p = 3 * BLOCK_COLUMNS + 59
        dropped = []
        survivors = _WindowBound.survivors

        def keep_all(self, block, cuts):
            return [None] * len(cuts)

        def counted(self, block, cuts):
            kept = survivors(self, block, cuts)
            dropped.extend((~windows).sum() for windows in kept if windows is not None)
            return kept

        pair = (207, 2 * BLOCK_COLUMNS + 54)
        selected = []
        for n in (37, 120):
            if case == "tied pair":  # across the boundary of the first two blocks
                data = signal_with_noise_columns(rng, n, p, (BLOCK_COLUMNS - 1, -BLOCK_COLUMNS))
            elif case == "duplicate":
                data = signal_with_noise_columns(rng, n, p, (10, 2 * BLOCK_COLUMNS + 3))
            else:
                data = signal_with_noise_columns(rng, n, p, (207,))
                table = np.column_stack((data.x, data.delta, data.predictors))
                if case == "scaled":
                    table[:, 2:] *= 2.0 ** rng.choice([-40, 0, 40], p)
                else:  # equal to 207 within a few ulps once standardized
                    table[:, 2 + pair[1]] = table[:, 2 + pair[0]] * (1.0 + 2.0 ** -45)
                data = ingest(table, standardize=case == "near-duplicate")
            perms = [rng.permutation(n) for _ in range(3)]
            with monkeypatch.context() as patch:
                patch.setattr(_WindowBound, "survivors", counted)
                pruned = [stabilized._select_orderings(data, perms, first, n - 1)
                          for first in (3, n // 2)]
            with monkeypatch.context() as patch:
                patch.setattr(_WindowBound, "survivors", keep_all)
                unpruned = [stabilized._select_orderings(data, perms, first, n - 1)
                            for first in (3, n // 2)]
            for (ks, ms), (want_ks, want_ms) in zip(pruned, unpruned):
                assert same_bits(ks, want_ks) and same_bits(ms, want_ms)
                selected.extend(ks.ravel())
        assert sum(dropped) > 0
        if case == "near-duplicate":  # both of the pair win some steps
            assert set(pair) <= set(selected)

    def test_blocks_at_extreme_scales_select_the_oracles_predictor(self, rng):
        # a block x1e30 is outside float32's range and takes the float64 pass;
        # a block x1e-30, the last, is screened in float32, where its squares
        # underflow to 0, so every one of its columns is kept.  Neither wins:
        # x1e30 divides a slope by 1e30, and x1e-30 puts the variance below EPS_VAR
        n, p = 50, 3 * BLOCK_COLUMNS + 20
        data = signal_with_noise_columns(rng, n, p, (40,))
        table = np.column_stack((data.x, data.delta, data.predictors))
        table[:, 2 + BLOCK_COLUMNS:2 + 2 * BLOCK_COLUMNS] *= 1e30
        table[:, 2 + 3 * BLOCK_COLUMNS:] *= 1e-30
        data = ingest(table, standardize=False)
        U = [list(r) for r in data.predictors]
        for state in ({}, {"all": "raise"}):
            with np.errstate(**state), warnings.catch_warnings():
                warnings.simplefilter("error")
                for j in (5, 30, 50):
                    got = select_predictor(data, j)
                    assert got == oracles.select(list(data.x), list(data.delta), U, j)
                out = multi_ordering_test(data, orderings=2, seed=6)
                assert all(all(r.k == 40) for r in out.results)

    @pytest.mark.parametrize("case", BOUND_CASES)
    def test_column_variances_are_the_same_alone_and_in_a_block(self, rng, case):
        # F-order rows, such as U.T[:, perm], differ here in the last bits
        for n, first in ((40, 5), (137, 68), (300, 150)):
            U = bound_columns(rng, n, case)
            rows, steps, p = ordered_rows(U, rng.permutation(n)), n - first, U.shape[1]
            block = _prefix_variance(rows, first, steps, np.empty((steps, p)), np.empty((steps, p)))
            for c in range(p):
                alone = _prefix_variance(rows[c:c + 1], first, steps, np.empty((steps, 1)),
                                         np.empty((steps, 1)))
                assert same_bits(alone[:, 0], block[:, c])

    @staticmethod
    def assert_pruned_matches_oracle(monkeypatch, data, js, want_k):
        counts = []  # columns per exact prefix-moment pass
        exact = stabilized._prefix_variance

        def counted(rows, *args):
            counts.append(len(rows))
            return exact(rows, *args)

        monkeypatch.setattr(stabilized, "_prefix_variance", counted)
        for j in js:
            counts.clear()
            got = select_predictor(data, j)
            assert got == oracles.select(list(data.x), list(data.delta),
                                         [list(r) for r in data.predictors], j)
            assert got[0] == want_k
            assert sum(counts) < data.p / 2  # most columns skipped the exact pass

    @pytest.mark.parametrize("scale", [1.0 - 1e-12, 1.0 + 1e-12])
    def test_near_tie_three_blocks_after_the_leader(self, rng, monkeypatch, scale):
        leader, rival = 40, 40 + 3 * BLOCK_COLUMNS
        data = signal_with_noise_columns(rng, 50, 4 * BLOCK_COLUMNS + 30, (leader,))
        table = np.column_stack((data.x, data.delta, data.predictors))
        # a column scaled by s has slope / s: the rival wins by 1e-12 relative when s < 1
        table[:, 2 + rival] = scale * table[:, 2 + leader]
        data = ingest(table, standardize=False)
        self.assert_pruned_matches_oracle(monkeypatch, data, (5, 30, 50),
                                          rival if scale < 1.0 else leader)

    def test_duplicate_of_the_leader_in_a_later_block_loses(self, rng, monkeypatch):
        copy = 2 * BLOCK_COLUMNS + 3
        data = signal_with_noise_columns(rng, 50, 3 * BLOCK_COLUMNS + 5, (10, copy))
        self.assert_pruned_matches_oracle(monkeypatch, data, (5, 30, 50), 10)

    def test_signal_in_the_last_block(self, rng, monkeypatch):
        p = 3 * BLOCK_COLUMNS + 17
        data = signal_with_noise_columns(rng, 50, p, (-(p - 1),))
        self.assert_pruned_matches_oracle(monkeypatch, data, (5, 30, 50), p - 1)
        out = multi_ordering_test(data, orderings=3, seed=4)
        for result in out.results:
            assert all(result.k == p - 1) and all(result.m == -1)


def exact_pick(U, perm, w, first, i, cols, var):
    """(k, m) of the largest exact |slope| among ``cols`` at step i, in
    fractions; the smallest index wins a tie, and a best of 0 gives (0, +1)."""
    best, pick = Fraction(0), (0, 1)
    for k in sorted(cols):
        num = sum(Fraction(float(U[r, k])) * Fraction(float(w[r, i])) for r in perm[:first + i])
        slope = num / Fraction(var)
        if abs(slope) > abs(best):
            best, pick = slope, (k, 1 if slope > 0 else -1)
    return pick


class TestExactNearTies:
    @pytest.mark.parametrize("seed", range(6))
    def test_finish_picks_the_exact_argmax_of_near_duplicates(self, seed):
        # each step's candidates are copies of one column, mirrored or not, one
        # entry moved so that the numerators lie 2^-40 to 2^-52 apart, plus an
        # exact copy; each step's variance is a power of two, so the slopes
        # order as their numerators, which a dot product can misorder
        rng = np.random.default_rng(seed)
        n, first, steps, g = 120, 80, 20, 7
        perm = rng.permutation(n)
        w = rng.standard_normal((n, steps))
        w[:, 0] = 0.0  # every slope of step 0 is exactly 0
        t = perm[0]  # a row of every prefix
        U = np.empty((n, steps * g), order="F")
        var = 2.0 ** rng.integers(-3, 4, steps)
        for i in range(steps):
            base = rng.standard_normal(n)
            num = math.fsum(base[perm[:first + i]] * w[perm[:first + i], i])
            group = [base]
            for d in rng.integers(40, 53, g - 2):
                copy = base.copy()
                if i:  # the numerator moves by 1 to 2 times 2^-d of itself
                    copy[t] += rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0) * 2.0 ** -d * num \
                        / w[t, i]
                group.append(copy * rng.choice([-1.0, 1.0]))
            group.append(group[rng.integers(g - 1)].copy())
            U[:, i * g:(i + 1) * g] = np.column_stack([group[c] for c in rng.permutation(g)])
        run = stabilized._RunningSelection(steps)
        order = rng.permutation(steps * g)  # candidates in no particular order
        run.step = np.repeat(np.arange(steps), g)[order]
        run.col = np.arange(steps * g)[order]
        run.slope = np.zeros(steps * g)
        run.var = var[run.step]
        ks, ms = run.finish(U, perm, w, first)
        assert ks[0] == 0 and ms[0] == 1
        for i in range(steps):
            assert (ks[i], ms[i]) == exact_pick(U, perm, w, first, i, range(i * g, (i + 1) * g),
                                                var[i])


def selection_weights(x, delta, perms, first, last):
    """Every ordering's n x steps weights from one frame, each in its own buffer."""
    frame = _Weights(x, delta, first, last)
    return [frame.fill(perm, np.empty((last - first + 1, len(x)))) for perm in perms]


class TestPrefixWeights:
    @staticmethod
    def loop_weights(x, delta, perm, first, last):
        """One refit per prefix."""
        xp, dp = x[perm], delta[perm]
        w = np.zeros((len(x), last - first + 1))
        for i, j in enumerate(range(first, last + 1)):
            km = fit_censoring_km(xp[:j], dp[:j])
            yj = _weighted_response(xp[:j], dp[:j], survival_at(km, xp[:j]))
            w[perm[:j], i] = (yj - yj.mean()) / j
        return w

    @staticmethod
    def sample(rng, case, n):
        x = rng.exponential(1.0, n)
        delta = (rng.random(n) < {"light": 0.8, "heavy": 0.3}.get(case, 0.6)).astype(np.int64)
        if case == "none":
            delta[:] = 1
        elif case == "all":
            delta[:] = 0
        elif case == "ties":
            x = np.round(x, 1)
        elif case == "log":  # log-times, most of them negative, some tied
            x = np.round(np.log(x), 2)
        return x, delta

    @pytest.mark.parametrize("case", ["light", "heavy", "none", "all", "ties", "log"])
    def test_equal_to_refit_loop_bitwise(self, rng, case):
        for n in (*rng.integers(5, 60, size=6), 300, 700):
            n = int(n)
            x, delta = self.sample(rng, case, n)
            perms = [rng.permutation(n) for _ in range(int(rng.integers(1, 4)))]
            first = int(rng.integers(2, n))
            last = n - 1 if n > 100 else n  # the screen's last step, or select_predictor's j = n
            got = selection_weights(x, delta, perms, first, last)
            for w, perm in zip(got, perms, strict=True):
                want = self.loop_weights(x, delta, perm, first, last)
                assert w.flags.f_contiguous
                assert np.array_equal(w.view(np.int64), want.view(np.int64))  # signed zeros too

    @pytest.mark.parametrize("eps_g", [0.3, 0.9])
    def test_raised_eps_g_leaves_weights_unchanged(self, rng, monkeypatch, eps_g):
        # each prefix's own fit has j G(x-) >= 1 at its events, so the weights
        # never consult the censoring floor: raising it changes no bit, while
        # the refit loop's check on the same prefixes does fire
        samples = []
        for case in ("light", "heavy", "ties", "log"):
            for n in (20, 60, 300):
                x, delta = self.sample(rng, case, n)
                perms = [rng.permutation(n) for _ in range(3)]
                first = int(rng.integers(2, n // 2))
                want = selection_weights(x, delta, perms, first, n - 1)
                samples.append((x, delta, perms, first, want))
        monkeypatch.setattr(censoring, "EPS_G", eps_g)
        loop_failures = 0
        for x, delta, perms, first, want in samples:
            got = selection_weights(x, delta, perms, first, len(x) - 1)
            for w, v, perm in zip(got, want, perms, strict=True):
                assert np.array_equal(w.view(np.int64), v.view(np.int64))
                try:
                    self.loop_weights(x, delta, perm, first, len(x) - 1)
                except DegeneracyError:
                    loop_failures += 1
        assert loop_failures > 0

    def test_prefix_sums_by_reduceat_equal_1d_sums_bitwise(self, rng):
        # mixed signs, signed zeros and zero runs, at every length across
        # numpy's pairwise-summation split at 128 elements and its multiples
        n = 700
        row = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9, n)
        row[rng.random(n) < 0.1] = -0.0
        row[rng.random(n) < 0.1] = 0.0
        row[200:260] = 0.0
        row[400:420] = -0.0
        sizes = np.arange(2, n + 1)
        # the kernel's layout: one row per prefix after a leading 0.0, and a trailing 0.0
        work = np.zeros(len(sizes) * (n + 1) + 1)
        work[:-1].reshape(len(sizes), n + 1)[:, 1:] = row
        starts = np.arange(len(sizes)) * (n + 1)
        sums = np.add.reduceat(work, np.column_stack((starts, starts + sizes + 1)).ravel())[::2]
        want = np.array([row[:j].sum() for j in sizes])
        assert np.array_equal(sums.view(np.int64), want.view(np.int64))


def near_duplicate_head(rng, n=400, head=300, p=30):
    """Null data whose first ``head`` rows are near-copies of one row.  At a
    prefix inside them a predictor's influence values share a mean far above
    their spread, so the last bit of the squared mean shows in the step's
    dispersion."""
    u = rng.standard_normal((n, p))
    t, c = rng.standard_normal(n), rng.standard_normal(n) + 0.5
    x, status = np.minimum(t, c), (t <= c).astype(float)
    u[:head] = 2.0 + 1e-3 * rng.standard_normal((head, p))
    x[:head], status[:head] = 1.0 + 1e-3 * rng.standard_normal(head), 1.0
    return ingest(np.column_stack((x, status, u)), standardize=False)


class TestFullSampleSteps:
    @staticmethod
    def loop_steps(data, result, perm, influence):
        """(sigmas, increments) of a full-variant result recomputed one step
        at a time from single-column influence values, with float64 scalar
        arithmetic; ``influence`` memoizes (psi, influence values) per k."""
        km = fit_censoring_km(data.x, data.delta)
        y = _weighted_response(data.x, data.delta, survival_at(km, data.x))
        sigmas, raws = [], []
        for j, k in enumerate(result.k.tolist(), start=result.q_n):
            if k not in influence:
                kernel = _Kernel(data.x, data.delta, y, km, 1)
                bundle, ipw, car = kernel.influence(data.predictors[:, [k]])
                influence[k] = (float(plugin_slope(bundle)[0]), (ipw - car)[:, 0])
            psi, values = influence[k]
            values = values[perm]
            cs = np.concatenate(([0.0], np.cumsum(values)))
            csq = np.concatenate(([0.0], np.cumsum(values * values)))
            sig2 = csq[j] / j - (cs[j] / j) ** 2  # a float64 scalar: C pow
            sigmas.append(math.sqrt(max(sig2, 0.0)))
            raws.append(psi + values[j])
        sigmas = np.array(sigmas)
        weights = len(sigmas) / float(np.sum(1.0 / sigmas)) / sigmas
        increments = weights * result.m * np.array(raws)
        return list(sigmas), list(increments)

    @pytest.mark.parametrize("cores", [1, 3])
    def test_equal_to_step_loop_bitwise(self, rng, monkeypatch, cores):
        # several nuisance blocks per screen, on one thread or three; about
        # one ordering in eight differs from the loop if the squared mean is
        # an array multiply
        monkeypatch.setattr(stabilized, "BLOCK_COLUMNS", 7)
        monkeypatch.setattr(onestep, "BLOCK_COLUMNS", 7)
        monkeypatch.setattr(onestep, "SWEEP_MIN_COLUMNS", 1)
        monkeypatch.setattr(onestep, "_cores", lambda: cores)
        head = 300
        data = near_duplicate_head(rng, head=head)
        out = multi_ordering_test(data, orderings=4, q_n=2, seed=17)
        runs = [(r, stream(17, i).permutation(data.n)) for i, r in enumerate(out.results)]
        assert len(np.unique(np.concatenate([r.k for r in out.results]))) > 3 * 7
        for _ in range(48):
            perm = np.concatenate((rng.permutation(head), head + rng.permutation(data.n - head)))
            runs.append((stabilized_estimate(data, q_n=2, ordering=perm), perm))
        influence = {}
        for result, perm in runs:
            sigmas, increments = self.loop_steps(data, result, perm, influence)
            assert result.sigma.tolist() == sigmas
            assert result.increment.tolist() == increments

    def test_fallback_to_near_constant_predictor_hits_variance_floor(self, rng):
        # every row censored: every weight is 0 and each step falls back to (0, +1)
        n = 20
        table = np.column_stack((rng.exponential(1.0, n), np.zeros(n),
                                 1e-6 * rng.standard_normal(n), rng.standard_normal((n, 3))))
        data = ingest(table, standardize=False)
        with pytest.raises(DegeneracyError, match="predictor 0 has sample variance .* below"):
            stabilized_estimate(data, variant="full")
        with pytest.raises(DegeneracyError, match="predictor 0 has sample variance .* below"):
            multi_ordering_test(data, orderings=2, variant="full")


class TestErrorPrecedence:
    """The first failing step raises its own check's error."""

    @staticmethod
    def dataset(rng, duplicate_head=True):
        """Two leading rows (identical ones by default), then a censored row
        and 40 events."""
        x = np.concatenate(([3.0, 3.0 if duplicate_head else 2.5, 1.0],
                            1.5 + 3.0 * rng.random(40)))
        delta = np.ones(43)
        delta[2] = 0.0
        u = rng.standard_normal((43, 2))
        if duplicate_head:
            u[1] = u[0]
        return ingest(np.column_stack((x, delta, u)), standardize=False)

    @pytest.mark.parametrize("variant,message", [
        ("full", "^influence dispersion 0 below .* in ordering 0 at prefix size 2 "),
        ("prefix", "^predictor 0 has sample variance 0 below .* in ordering 0 at prefix size 2$"),
    ])
    def test_earlier_dispersion_failure_wins(self, rng, variant, message):
        # two identical rows: the step at prefix size 2 fails its nuisance
        # checks (zero dispersion, or a zero-variance prefix fit)
        data = self.dataset(rng)
        with pytest.raises(DegeneracyError, match=message):
            stabilized_estimate(data, q_n=2, variant=variant)

    @pytest.mark.parametrize("variant", ["full", "prefix"])
    def test_censoring_floor_checks_only_the_full_sample(self, rng, monkeypatch, variant):
        # the censored row at position 2 gives the prefix of size 3 G = 2/3 at
        # its events and the full sample G = 42/43: a floor of 0.9 leaves the
        # screen unchanged, one of 0.99 fails the full-sample fit
        data = self.dataset(rng, duplicate_head=False)
        want = stabilized_estimate(data, q_n=2, variant=variant)
        want_selected = select_predictor(data, 3)
        monkeypatch.setattr(censoring, "EPS_G", 0.9)
        got = stabilized_estimate(data, q_n=2, variant=variant)
        for field in fields(StabilizedResult):
            a, b = getattr(got, field.name), getattr(want, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name
        assert select_predictor(data, 3) == want_selected
        monkeypatch.setattr(censoring, "EPS_G", 0.99)
        with pytest.raises(DegeneracyError, match="censoring survival 0.977"):
            stabilized_estimate(data, q_n=2, variant=variant)

    @staticmethod
    def often_failing(rng):
        """Small datasets whose steps often fail: times 1 or 3, some censored,
        sometimes a duplicated block of rows, a near-constant predictor 0 and
        a balanced binary predictor 1.  A prefix where the binary slope
        cancels exactly selects the fallback predictor 0, which fails its
        variance floor, so a step can fail after steps that pass."""
        n = int(rng.integers(6, 16))
        x = rng.choice([1.0, 3.0], n)
        status = (rng.random(n) < rng.choice([1.0, 0.7])).astype(float)
        status[0] = 1.0
        u = np.column_stack((1e-6 * rng.standard_normal(n),
                             np.resize([0.0, 1.0], n)[rng.permutation(n)]))
        if rng.random() < 0.25:
            d = int(rng.integers(2, n // 2 + 1))
            x[1:d], status[1:d], u[1:d] = x[0], status[0], u[0]
        return ingest(np.column_stack((x, status, u)), standardize=False)

    @pytest.mark.parametrize("variant", ["full", "prefix"])
    def test_first_failing_ordering_wins(self, rng, variant):
        # the error of R orderings is that of the first ordering that fails,
        # at its first failing step, even when a later ordering fails at an
        # earlier step; errors compare by type and location
        def error_of(run, *args, **kwargs):
            try:
                run(*args, **kwargs)
            except SurvScreenError as error:
                where = re.search(r" in ordering (\d+) at prefix size (\d+)", str(error))
                assert where, error
                return type(error), int(where[1]), int(where[2])
            return None

        later_fails_earlier = 0
        for _ in range(120):
            data = self.often_failing(rng)
            q, orderings = int(rng.integers(2, data.n - 1)), int(rng.integers(2, 5))
            seed = int(rng.integers(1000))
            # each ordering screened alone, where it is ordering 0
            alone = [error_of(stabilized_estimate, data, q_n=q, variant=variant,
                              ordering=stream(seed, r).permutation(data.n))
                     for r in range(orderings)]
            failing = [r for r, error in enumerate(alone) if error]
            got = error_of(multi_ordering_test, data, orderings=orderings, q_n=q,
                           variant=variant, seed=seed)
            if not failing:
                assert got is None
                continue
            first = failing[0]
            kind, _, size = alone[first]
            assert got == (kind, first, size)
            later_fails_earlier += any(alone[r][2] < size for r in failing[1:])
        assert later_fails_earlier > 0
