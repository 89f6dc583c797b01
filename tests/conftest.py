import os
import subprocess
import sys
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


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def run_python(args, blas_threads, cwd=None):
    """Standard output of ``python *args`` importing survscreen from this
    checkout, with the BLAS pool pinned to ``blas_threads`` threads."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout
