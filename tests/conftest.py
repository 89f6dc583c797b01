import os
import subprocess
import sys
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from survscreen.dataset import ingest

SRC = Path(__file__).resolve().parents[1] / "src"


def random_dataset(rng, n=None, p=None, censor=0.2, standardize=False):
    """Small random dataset with roughly the requested censoring fraction."""
    n = n if n is not None else int(rng.integers(6, 31))
    p = p if p is not None else int(rng.integers(1, 6))
    u = rng.standard_normal((n, p))
    t = u[:, 0] * rng.normal(0, 0.5) + rng.standard_normal(n)
    if censor > 0:
        c = rng.standard_normal(n) + np.quantile(t, 1.0 - censor) - 0.2
        x = np.minimum(t, c)
        status = (t <= c).astype(float)
        if status.sum() < 2:  # keep at least two events so slopes exist
            status[:2] = 1.0
            x[:2] = t[:2]
    else:
        x, status = t, np.ones(n)
    return ingest(np.column_stack((x, status, u)), standardize=standardize)


def ingest_out_of_place(rows, tau_rule="max", standardize=True):
    """(x, delta, U, tau) of ``ingest`` by its formulas written out of place:
    the predictor view's variance, a Fortran copy, then (U - mean) / sd."""
    table = np.asarray(rows, dtype=np.float64)
    return build_out_of_place(table[:, 0], table[:, 1], table[:, 2:], tau_rule, standardize)


def build_out_of_place(time, status, predictors, tau_rule="max", standardize=True):
    """``ingest_out_of_place`` of a table already split into its columns."""
    x = np.array(time, dtype=np.float64)
    delta = status.astype(np.int64)
    if tau_rule == "max":
        tau = float(np.max(x))
    else:
        q = float(tau_rule.split(":")[1])
        tau = float(np.sort(x)[max(0, int(np.ceil(len(x) * q)) - 1)])
    delta[x > tau] = 0
    x[x > tau] = tau
    variances = predictors.var(axis=0)
    u = np.asfortranarray(predictors)
    if standardize:
        u = np.asfortranarray((u - u.mean(axis=0)) / np.sqrt(variances))
    return x, delta, u, tau


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same(a, b):
    """Results equal field by field, to the type and the bits."""
    assert type(a) is type(b)
    if is_dataclass(a):
        for field in fields(a):
            assert_same(getattr(a, field.name), getattr(b, field.name))
    elif isinstance(a, tuple):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    else:
        assert same_bits(a, b)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def src_env(**extra):
    """The environment, plus ``extra``, with this checkout's survscreen first
    on PYTHONPATH."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path), **extra)


def run_python(args, blas_threads, cwd=None):
    """Standard output of ``python *args`` importing survscreen from this
    checkout, with the BLAS pool pinned to ``blas_threads`` threads."""
    env = src_env(OPENBLAS_NUM_THREADS=str(blas_threads))
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout
