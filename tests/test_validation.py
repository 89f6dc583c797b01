"""Every public entry point checks its counts, indices, test level, options
and choices the same way: a bad value raises InputError naming the argument,
and an integral value of another numeric type gives the plain-int result."""

import numpy as np
import pytest

from survscreen import (
    ScenarioSpec,
    bonferroni_test,
    calibrate_censoring_rate,
    conservative_variance,
    generate_scenario,
    ingest,
    monte_carlo_rejection,
    multi_ordering_test,
    one_step,
    read_csv,
    select_predictor,
    stabilized_estimate,
    synthetic_response,
)
from survscreen.errors import InputError

from conftest import assert_same, random_dataset

N, P = 20, 3

# each entry point called on an n=20, p=3 dataset (or a spec of that size)
# with valid values for the arguments a row does not set
CALLS = {
    "one_step": lambda data, **kw: one_step(data, **{"k": 0, **kw}),
    "conservative_variance": lambda data, **kw: conservative_variance(data, **{"k": 0, **kw}),
    "bonferroni_test": bonferroni_test,
    "select_predictor": select_predictor,
    "stabilized_estimate": stabilized_estimate,
    "synthetic_response": synthetic_response,
    "multi_ordering_test": lambda data, **kw: multi_ordering_test(data, **{"orderings": 2, **kw}),
    "ScenarioSpec": lambda data, **kw: ScenarioSpec(**{"n": N, "p": P, **kw}),
    "generate_scenario": lambda data, **kw: generate_scenario(
        **{"spec": ScenarioSpec(n=N, p=P), **kw}),
    "calibrate_censoring_rate": lambda data, **kw: calibrate_censoring_rate(
        **{"model": "N", "error": "independent", "target": 0.1, **kw}),
    "monte_carlo_rejection": lambda data, **kw: monte_carlo_rejection(
        **{"spec": ScenarioSpec(n=N, p=P), "method": "oracle", "reps": 1, **kw}),
    "ingest": lambda data, **kw: ingest(np.column_stack((data.x, data.delta, data.predictors)),
                                        **kw),
    # no such file: an option is checked before the file is opened
    "read_csv": lambda data, **kw: read_csv("missing.csv", **kw),
    "column": lambda data, **kw: data.column(**kw),
}

NAN, INF = float("nan"), float("inf")
LEVELS = [0, 0.0, 1, 1.0, -1, 1.5, True, False, NAN, "0.05", None]
NOT_DATA = [None, np.zeros((N, P + 2)), "data.csv"]  # the table or path a dataset is read from
NOT_SPEC = [None, np.array([N, P]), "N"]

BAD = {
    ("one_step", "k"): [True, False, 0.5, "0", NAN, -1, P, 5.0, None],
    ("one_step", "alpha"): LEVELS,
    ("conservative_variance", "k"): [True, 1.5, "0", -1, P],
    ("conservative_variance", "m_bound"): [NAN, INF, -INF, -1.0, 0.0, True, "1"],
    ("bonferroni_test", "alpha"): LEVELS,
    ("select_predictor", "j"): [True, 5.5, "5", NAN, 1, N + 1],
    ("stabilized_estimate", "q_n"): ["5", True, 5.5, NAN, INF, 1, N],
    ("stabilized_estimate", "variant"): ["both", 1, True],
    ("stabilized_estimate", "alpha"): LEVELS,
    ("stabilized_estimate", "ordering"): [
        np.arange(N) + 0.5, np.arange(N) * 1.01, np.zeros(N), np.arange(N - 1),
        np.arange(N).reshape(4, 5), np.arange(N) % 2 == 0, [str(i) for i in range(N)], 3],
    ("multi_ordering_test", "orderings"): [True, False, 2.5, "2", NAN, 0, -3],
    ("multi_ordering_test", "seed"): [1.5, "1", True, NAN, None],
    ("multi_ordering_test", "q_n"): ["5", 1.5],
    ("multi_ordering_test", "variant"): ["both"],
    ("multi_ordering_test", "alpha"): [0.0, 1.5, True],
    ("ScenarioSpec", "n"): [20.5, True, "20", 1, NAN],
    ("ScenarioSpec", "p"): [5.5, True, "5", 0],
    ("ScenarioSpec", "seed"): [1.5, "1", True, None],
    ("ScenarioSpec", "model"): ["X", 1, None],
    ("ScenarioSpec", "error"): ["correlated"],
    ("ScenarioSpec", "censoring"): ["medium", None],
    ("ScenarioSpec", "rho"): ["0.5", False, None],
    ("generate_scenario", "rep"): [1.5, -1, True, "0"],
    ("calibrate_censoring_rate", "target"): [0.0, 1.0, NAN, True, "0.1"],
    ("calibrate_censoring_rate", "model"): [["N"], {"N": 1}],
    ("calibrate_censoring_rate", "error"): [["independent"]],
    ("monte_carlo_rejection", "reps"): [True, 2.5, "2", 0],
    ("monte_carlo_rejection", "parallelism"): [True, 1.5, 0],
    ("monte_carlo_rejection", "orderings"): [True, 2.5, 0],
    ("monte_carlo_rejection", "method"): ["wald", None],
    ("monte_carlo_rejection", "alpha"): [0, 1, -1, 1.5, True],
    ("ingest", "tau_rule"): [5, None, 1.0],
    ("ingest", "standardize"): ["no", 0, 1, None],
    ("read_csv", "tau_rule"): [5, None],
    ("read_csv", "standardize"): ["no", 0],
    ("column", "name"): [3, 0, None],
    ("one_step", "data"): NOT_DATA,
    ("conservative_variance", "data"): NOT_DATA,
    ("bonferroni_test", "data"): NOT_DATA,
    ("select_predictor", "data"): NOT_DATA,
    ("stabilized_estimate", "data"): NOT_DATA,
    ("multi_ordering_test", "data"): NOT_DATA,
    ("synthetic_response", "data"): NOT_DATA,
    ("generate_scenario", "spec"): NOT_SPEC,
    ("monte_carlo_rejection", "spec"): NOT_SPEC,
}


@pytest.fixture(scope="module")
def data():
    return random_dataset(np.random.default_rng(16), n=N, p=P)


@pytest.mark.parametrize("entry,argument,value", [
    (entry, argument, value) for (entry, argument), values in BAD.items() for value in values
])
def test_bad_argument_raises_input_error_naming_it(data, entry, argument, value):
    with pytest.raises(InputError, match=f"^{argument} must be "):
        CALLS[entry](**{"data": data, argument: value})


# strings naming no predictor, by name or 1-based index: digits int() takes
# but are not ASCII, a doubled sign, and indices outside 1..p
@pytest.mark.parametrize("name", ["²", "١", "+-1", "0", str(P + 1)])
def test_name_of_no_predictor_raises_unknown_predictor(data, name):
    with pytest.raises(InputError) as caught:
        data.column(name)
    assert str(caught.value) == f"unknown predictor {name!r}"


@pytest.mark.parametrize("rows,message", [
    ([["a", 1, 2], [1, 0, 3]], "^rows must be "),
    ([[1, 0, 2], [1, 0]], "^rows must be "),
    ([[1 + 1j, 0, 2], [2, 1, 3]], "^rows must be "),
    (np.array([[1 + 1j, 0, 2], [2, 1, 3]]), "^rows must be "),
    ([[1, 0], [2, 1]], r"^need columns \(time, status, u1, \.\.\.\) with at least one predictor$"),
], ids=["text", "ragged", "complex-list", "complex-array", "no-predictor"])
def test_records_that_are_not_real_numbers_raise_input_error_naming_rows(rows, message):
    with pytest.raises(InputError, match=message):
        ingest(rows)


@pytest.mark.parametrize("entry,same,plain", [
    ("one_step", {"k": np.int64(2)}, {"k": 2}),
    ("one_step", {"alpha": np.float64(0.1)}, {"alpha": 0.1}),
    ("conservative_variance", {"k": np.int64(2)}, {"k": 2}),
    ("conservative_variance", {"m_bound": np.float64(0.5)}, {"m_bound": 0.5}),
    ("select_predictor", {"j": 5.0}, {"j": 5}),
    ("select_predictor", {"j": np.int32(5)}, {"j": 5}),
    ("stabilized_estimate", {"q_n": 5.0}, {"q_n": 5}),
    ("stabilized_estimate", {"ordering": np.arange(N)[::-1] * 1.0}, {"ordering": np.arange(N)[::-1]}),
    ("stabilized_estimate", {"ordering": list(range(N))}, {}),
    ("multi_ordering_test", {"orderings": 2.0, "seed": 3.0}, {"orderings": 2, "seed": 3}),
    ("multi_ordering_test", {"orderings": np.int64(2), "seed": np.uint64(3)},
     {"orderings": 2, "seed": 3}),
    ("generate_scenario", {"rep": 1.0}, {"rep": 1}),
])
def test_integral_values_give_the_plain_int_result(data, entry, same, plain):
    assert_same(CALLS[entry](data, **same), CALLS[entry](data, **plain))


def test_scenario_counts_are_stored_as_ints():
    spec = ScenarioSpec(n=np.int64(N), p=5.0, seed=np.uint8(7))
    assert spec == ScenarioSpec(n=N, p=5, seed=7)
    assert (type(spec.n), type(spec.p), type(spec.seed)) == (int, int, int)
    assert_same(generate_scenario(spec), generate_scenario(ScenarioSpec(n=N, p=5, seed=7)))


def test_scenario_rho_is_stored_as_a_float():
    spec = ScenarioSpec(n=N, p=5, rho=np.float64(0.5))
    assert type(spec.rho) is float
    assert_same(generate_scenario(spec), generate_scenario(ScenarioSpec(n=N, p=5, rho=0.5)))
