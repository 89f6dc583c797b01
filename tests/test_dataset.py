import gzip

import numpy as np
import pytest

from survscreen.dataset import ingest, lower_quantile, parse_tau_rule, read_csv
from survscreen.errors import InputError


def test_max_rule_is_noop():
    data = ingest([[1, 1, 0.5], [2, 1, -0.1], [3, 1, 0.7]], tau_rule="max", standardize=False)
    assert data.tau == 3.0
    assert np.array_equal(data.x, [1.0, 2.0, 3.0])
    assert np.array_equal(data.delta, [1, 1, 1])


def test_quantile_rule_caps_and_censors():
    data = ingest(
        [[1, 1, 0.5], [2, 1, -0.1], [10, 1, 0.7]], tau_rule="q:0.5", standardize=False
    )
    assert data.tau == 2.0
    assert np.array_equal(data.x, [1.0, 2.0, 2.0])
    assert np.array_equal(data.delta, [1, 1, 0])


def test_lower_quantile_is_order_statistic():
    assert lower_quantile(np.array([1.0, 2.0, 10.0]), 0.5) == 2.0
    assert lower_quantile(np.array([5.0, 1.0]), 1.0) == 5.0
    assert lower_quantile(np.array([5.0, 1.0]), 0.5) == 1.0


def test_constant_column_rejected_by_name():
    with pytest.raises(InputError, match="u2"):
        ingest([[1, 1, 0.5, 7.0], [2, 0, -0.1, 7.0], [3, 1, 0.7, 7.0]])


def test_non_binary_status_rejected_with_row():
    with pytest.raises(InputError, match="row 2"):
        ingest([[1, 1, 0.5], [2, 2, -0.1]])


def test_nan_rejected():
    with pytest.raises(InputError, match="row 1"):
        ingest([[np.nan, 1, 0.5], [2, 0, -0.1]])
    with pytest.raises(InputError, match="column 1"):
        ingest([[1, 1, np.inf], [2, 0, -0.1]])


def test_too_few_rows_rejected():
    with pytest.raises(InputError, match="at least 2"):
        ingest([[1, 1, 0.5]])


def test_standardization_moments():
    rng = np.random.default_rng(1)
    table = np.column_stack((rng.exponential(1, 50), np.ones(50), rng.normal(3, 9, (50, 4))))
    data = ingest(table, standardize=True)
    assert np.all(np.abs(data.predictors.mean(axis=0)) < 1e-10)
    assert np.all(np.abs(data.predictors.var(axis=0) - 1.0) < 1e-10)
    assert data.predictors.flags.f_contiguous


def test_tau_rule_parsing():
    assert parse_tau_rule("max") == ("max", None)
    assert parse_tau_rule("max_observed") == ("max", None)
    assert parse_tau_rule("q:0.9") == ("quantile", 0.9)
    assert parse_tau_rule("quantile:0.5") == ("quantile", 0.5)
    for bad in ("q:", "q:2", "median", "q:-0.1"):
        with pytest.raises(InputError):
            parse_tau_rule(bad)


def test_dataset_is_immutable():
    data = ingest([[1, 1, 0.5], [2, 0, -0.1]], standardize=False)
    with pytest.raises(ValueError):
        data.x[0] = 5.0
    with pytest.raises(ValueError):
        data.predictors[0, 0] = 5.0


def test_column_resolution():
    data = ingest([[1, 1, 0.5, 1.0], [2, 0, -0.1, 2.0]], standardize=False, names=["age", "dose"])
    assert data.column("dose") == 1
    assert data.column("2") == 1
    with pytest.raises(InputError):
        data.column("weight")


def _write_csv(path, text, compress=False):
    if compress:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(text)
    else:
        path.write_text(text, encoding="utf-8")


def test_read_csv_roundtrip(tmp_path):
    body = "time,status,u1,u2\n1.0,1,0.5,2.0\n2.5,0,-0.1,1.0\n3.0,1,0.7,0.5\n"
    plain = tmp_path / "toy.csv"
    _write_csv(plain, body)
    data = read_csv(str(plain), standardize=False)
    assert data.n == 3 and data.p == 2
    assert data.predictor_names == ("u1", "u2")

    zipped = tmp_path / "toy.csv.gz"
    _write_csv(zipped, body, compress=True)
    data_gz = read_csv(str(zipped), standardize=False)
    assert np.array_equal(data.predictors, data_gz.predictors)


def test_read_csv_schema_errors(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("t,s,u1\n1,1,0.5\n")
    with pytest.raises(InputError, match="header"):
        read_csv(str(bad_header))

    ragged = tmp_path / "r.csv"
    ragged.write_text("time,status,u1\n1,1,0.5\n2,0\n")
    with pytest.raises(InputError, match="row 3"):
        read_csv(str(ragged))

    with pytest.raises(InputError, match="cannot open"):
        read_csv(str(tmp_path / "missing.csv"))
