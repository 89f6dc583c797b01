"""Dataset model and ingestion.

An analysis dataset holds n observations of a possibly right-censored
follow-up time ``x`` (log scale), an event indicator ``delta`` (1 = event,
0 = censored), and an n-by-p predictor matrix.  Follow-up is capped at
``tau``: rows observed beyond the cap are administratively censored at it.

The predictor matrix is stored column-major (each predictor contiguous)
because the kernels read it by columns: the stabilized selection streams it
once per screen in blocks of adjacent columns, each block one contiguous
slab, and the one-step kernel sums each column in one contiguous pass, so a
column's results do not depend on the block it is evaluated in.
"""

import csv
import gzip
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InputError

CSV_TIME_COLUMN = "time"
CSV_STATUS_COLUMN = "status"


@dataclass(frozen=True)
class SurvivalDataset:
    """Immutable (x, delta, U) triples with follow-up cap tau."""

    x: np.ndarray
    delta: np.ndarray
    predictors: np.ndarray
    predictor_names: tuple
    tau: float
    standardized: bool

    def __post_init__(self):
        for arr in (self.x, self.delta, self.predictors):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def p(self) -> int:
        return self.predictors.shape[1]

    def censoring_fraction(self) -> float:
        return float(np.mean(self.delta == 0))

    def column(self, name: str) -> int:
        """Resolve a predictor name (or 1-based index string) to a column."""
        if name in self.predictor_names:
            return self.predictor_names.index(name)
        if name.lstrip("+-").isdigit():
            k = int(name)
            if 1 <= k <= self.p:
                return k - 1
        raise InputError(f"unknown predictor {name!r}")


def lower_quantile(values: np.ndarray, q: float) -> float:
    """Lower empirical (type-1) quantile: the ceil(n*q)-th order statistic."""
    if not 0.0 < q <= 1.0:
        raise InputError(f"quantile must be in (0, 1], got {q}")
    xs = np.sort(values)
    idx = max(0, math.ceil(len(xs) * q) - 1)
    return float(xs[idx])


def parse_tau_rule(rule: str) -> tuple:
    """Parse 'max' or 'q:<x>' (also accepts 'max_observed', 'quantile:<x>')."""
    if rule in ("max", "max_observed"):
        return ("max", None)
    for prefix in ("q:", "quantile:"):
        if rule.startswith(prefix):
            try:
                q = float(rule[len(prefix):])
            except ValueError:
                raise InputError(f"bad tau rule {rule!r}") from None
            if not 0.0 < q <= 1.0:
                raise InputError(f"tau quantile must be in (0, 1], got {q}")
            return ("quantile", q)
    raise InputError(f"bad tau rule {rule!r}; expected 'max' or 'q:<x>'")


def ingest(
    rows,
    tau_rule: str = "max",
    standardize: bool = True,
    names: Optional[Sequence[str]] = None,
) -> SurvivalDataset:
    """Build a dataset from tabular records (time, status, u1, ..., up).

    Rows observed past the follow-up cap are administratively censored at it
    (x <- tau, delta <- 0).  With ``standardize`` each predictor column is
    rescaled to sample mean 0 and variance 1 (divisor n).
    """
    table = np.asarray(rows, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] < 3:
        raise InputError("need columns (time, status, u1, ...) with at least one predictor")
    n = table.shape[0]
    p = table.shape[1] - 2
    if n < 2:
        raise InputError(f"need at least 2 observations, got {n}")

    time = table[:, 0].copy()
    status = table[:, 1]
    predictors = table[:, 2:]

    if not np.all(np.isfinite(time)):
        bad = int(np.flatnonzero(~np.isfinite(time))[0])
        raise InputError(f"non-finite time in row {bad + 1}")
    bad_status = (status != 0.0) & (status != 1.0)
    if np.any(bad_status):
        bad = int(np.flatnonzero(bad_status)[0])
        raise InputError(f"non-binary status {status[bad]!r} in row {bad + 1}")
    if not np.all(np.isfinite(predictors)):
        bad_row, bad_col = np.argwhere(~np.isfinite(predictors))[0]
        raise InputError(f"non-finite predictor value in row {bad_row + 1}, column {bad_col + 1}")

    delta = status.astype(np.int64)

    kind, q = parse_tau_rule(tau_rule)
    tau = float(np.max(time)) if kind == "max" else lower_quantile(time, q)
    over = time > tau
    time[over] = tau
    delta[over] = 0

    variances = predictors.var(axis=0)
    if np.any(variances <= 0.0):
        bad = int(np.flatnonzero(variances <= 0.0)[0])
        name = names[bad] if names else f"u{bad + 1}"
        raise InputError(f"predictor column {name!r} (index {bad + 1}) has zero variance")

    predictors = np.asfortranarray(predictors)
    if standardize:
        predictors = np.asfortranarray(
            (predictors - predictors.mean(axis=0)) / np.sqrt(variances)
        )

    if names is None:
        names = tuple(f"u{k + 1}" for k in range(p))
    else:
        if len(names) != p:
            raise InputError(f"{len(names)} predictor names for {p} columns")
        names = tuple(names)

    return SurvivalDataset(
        x=time,
        delta=delta,
        predictors=predictors,
        predictor_names=names,
        tau=tau,
        standardized=standardize,
    )


def _open_text(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def read_csv(path: str, tau_rule: str = "max", standardize: bool = True) -> SurvivalDataset:
    """Read the `time,status,u1,...,up` CSV schema (optionally gzipped)."""
    try:
        fh = _open_text(path)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if len(header) < 3 or header[0] != CSV_TIME_COLUMN or header[1] != CSV_STATUS_COLUMN:
            raise InputError(
                f"{path}: header must be '{CSV_TIME_COLUMN},{CSV_STATUS_COLUMN},u1,...'"
            )
        names = header[2:]
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise InputError(f"{path}: row {lineno} has {len(row)} fields, expected {len(header)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise InputError(f"{path}: row {lineno}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    try:
        return ingest(rows, tau_rule=tau_rule, standardize=standardize, names=names)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
