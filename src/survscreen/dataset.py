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

Building that matrix is one pass over blocks of ``BLOCK_COLUMNS`` adjacent
columns of the caller's predictors: a block's variances, its copy into the
matrix and its standardization all run while the block is in cache, so the
matrix is the only n-by-p array made.

``read_csv`` parses a plain CSV body of at least ``SPLIT_MIN_BYTES`` on two
cores: a forked child parses the lines past the body's middle while the
caller parses those before it, both into one shared table (``_split_parse``).
Any body the split cannot parse as the serial parser would, and any failure,
falls back to the serial parse, so every table and every error is the
serial one's.
"""

import csv
import gzip
import itertools
import math
import os
import stat
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputError

CSV_TIME_COLUMN = "time"
CSV_STATUS_COLUMN = "status"

# Predictor columns per block in every blocked loop (building a dataset,
# bonferroni_test, and the screen's selection and full-sample nuisances): at
# n=500 each n x b temporary is 1 MB, so a block and its per-step arrays stay
# in cache.  Much narrower blocks make building slower, since numpy reduces a
# row-major block row by row in loops of b elements.
BLOCK_COLUMNS = 256

# A plain CSV body of at least this many bytes is parsed on two cores, where
# the process may run on two; a fork and a pass over the body cost more than
# a smaller body's parse.
SPLIT_MIN_BYTES = 1 << 20
# Each np.loadtxt call of a split parse takes whole lines of about this many
# bytes, so the text and its lines held at once stay small.
SPLIT_CHUNK_BYTES = 1 << 20

# comments=None: a row starting with '#' is malformed, not skipped
_LOADTXT = dict(delimiter=",", comments=None, quotechar='"', ndmin=2)


def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SurvivalDataset:
    """Immutable (x, delta, U) triples with follow-up cap tau."""

    x: np.ndarray
    delta: np.ndarray
    predictors: np.ndarray
    predictor_names: tuple
    tau: float

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
        """Resolve a predictor name, or a 1-based index in ASCII digits, to a column."""
        if not isinstance(name, str):
            raise InputError(f"name must be a string, got {name!r}")
        if name in self.predictor_names:
            return self.predictor_names.index(name)
        digits = name[1:] if name[:1] in ("+", "-") else name
        if digits.isascii() and digits.isdigit():  # int() takes other digits too
            k = int(name)
            if 1 <= k <= self.p:
                return k - 1
        raise InputError(f"unknown predictor {name!r}")


def lower_quantile(values: np.ndarray, q: float) -> float:
    """Lower empirical (type-1) quantile, the ceil(n*q)-th order statistic; q in (0, 1]."""
    xs = np.sort(values)
    idx = max(0, math.ceil(len(xs) * q) - 1)
    return float(xs[idx])


def parse_tau_rule(rule: str) -> float:
    """The quantile level of the follow-up cap: 'max' is 1.0, 'q:<x>' is x."""
    if not isinstance(rule, str):
        raise InputError(f"tau_rule must be a string, got {rule!r}")
    if rule == "max":
        return 1.0
    if rule.startswith("q:"):
        try:
            q = float(rule[2:])
        except ValueError:
            raise InputError(f"bad tau rule {rule!r}") from None
        if not 0.0 < q <= 1.0:
            raise InputError(f"tau quantile must be in (0, 1], got {q}")
        return q
    raise InputError(f"bad tau rule {rule!r}; expected 'max' or 'q:<x>'")


def _tau_level(tau_rule, standardize) -> float:
    """The level of ``tau_rule``, once ``standardize`` is checked too."""
    if not isinstance(standardize, bool):
        raise InputError(f"standardize must be a bool, got {standardize!r}")
    return parse_tau_rule(tau_rule)


def _row(index: int) -> str:
    return f"row {index + 1}"


def ingest(rows, tau_rule: str = "max", standardize: bool = True) -> SurvivalDataset:
    """Build a dataset from tabular records (time, status, u1, ..., up).

    Rows observed past the follow-up cap are administratively censored at it
    (x <- tau, delta <- 0).  With ``standardize`` each predictor column is
    rescaled to sample mean 0 and variance 1 (divisor n).  The records are
    copied, never written or aliased.  Records that are not real numbers
    (text that is not a number, complex values) and ragged rows are input
    errors.
    """
    level = _tau_level(tau_rule, standardize)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a complex array's imaginary parts dropped
            table = np.asarray(rows, dtype=np.float64)
    except (ValueError, TypeError, Warning) as exc:
        raise InputError(f"rows must be a rectangular table of real numbers: {exc}") from None
    if table.ndim != 2 or table.shape[1] < 3:
        raise InputError("need columns (time, status, u1, ...) with at least one predictor")
    return _build(table[:, 0], table[:, 1], table[:, 2:], level, standardize, None)


def _build(time, status, predictors, level, standardize, names, locate=_row) -> SurvivalDataset:
    """The dataset of one table split into time, status and predictor columns.

    The caller's arrays are only read.  The one n x p array built here is the
    column-major copy of the predictors, filled block by block: each block's
    variances are taken on a view of the caller's array, in its layout, so
    they are bitwise those of ``predictors.var(axis=0)``; the block is then
    copied and standardized in place.  ``names`` is a tuple of predictor
    names (None: u1..up), and ``locate`` names a data row (by 0-based index)
    in error messages.
    """
    n, p = predictors.shape
    if n < 2:
        raise InputError(f"need at least 2 observations, got {n}")
    if names is None:
        names = tuple(f"u{k + 1}" for k in range(p))

    if not np.all(np.isfinite(time)):
        bad = int(np.flatnonzero(~np.isfinite(time))[0])
        raise InputError(f"non-finite time in {locate(bad)}")
    bad_status = (status != 0.0) & (status != 1.0)
    if np.any(bad_status):
        bad = int(np.flatnonzero(bad_status)[0])
        raise InputError(f"non-binary status {float(status[bad])} in {locate(bad)}")

    tau = lower_quantile(time, level)  # level 1.0 is the largest time
    time = time.copy()
    delta = status.astype(np.int64)
    over = time > tau
    time[over] = tau
    delta[over] = 0

    u = np.empty((n, p), order="F")
    zero = None  # the first zero-variance column; reported once no value is non-finite
    cuts = list(range(BLOCK_COLUMNS, p, BLOCK_COLUMNS))
    if cuts and cuts[-1] == p - 1:
        cuts.pop()  # numpy sums a lone strided column pairwise, a wider block row by row
    for a, b in zip([0, *cuts], [*cuts, p]):
        block = predictors[:, a:b]
        with np.errstate(all="ignore"):  # a non-finite variance is raised
            variances = block.var(axis=0)
        if not np.all(np.isfinite(variances)):
            raise _non_finite(predictors, a + int(np.flatnonzero(~np.isfinite(variances))[0]),
                              names, locate)
        if zero is None and np.any(variances <= 0.0):
            zero = a + int(np.flatnonzero(variances <= 0.0)[0])
        if zero is None:
            ub = u[:, a:b]
            ub[...] = block
            if standardize:
                ub -= ub.mean(axis=0)
                ub /= np.sqrt(variances)
    if zero is not None:
        raise InputError(f"predictor column {names[zero]!r} (index {zero + 1}) has zero variance")

    return SurvivalDataset(
        x=time,
        delta=delta,
        predictors=u,
        predictor_names=names,
        tau=tau,
    )


def _non_finite(predictors, col, names, locate) -> InputError:
    """The error for a non-finite variance first met at column ``col``: the
    first non-finite value in row-major order, else ``col``'s overflow."""
    bad = np.argwhere(~np.isfinite(predictors))
    if len(bad):
        row, bad_col = (int(i) for i in bad[0])
        return InputError(f"non-finite predictor value in {locate(row)}, "
                          f"column {bad_col + 1} ({names[bad_col]!r})")
    return InputError(f"predictor column {names[col]!r} (index {col + 1}) has a variance "
                      "that overflows float64")


def _open_text(path: str):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rt", encoding="utf-8")
    return open(path, "r", encoding="utf-8")


def _records(path: str):
    """(line, fields) of each non-blank data record, where line is the file
    line the record starts on (the header starts on line 1).  A quoted field
    may span lines."""
    with _open_text(path) as fh:
        reader = csv.reader(fh)
        next(reader, None)
        start = reader.line_num + 1
        for row in reader:
            if row:
                yield start, row
            start = reader.line_num + 1


def _parse_error(path: str, width: int, detail) -> InputError:
    """The error for the first malformed record, found by re-scanning the text."""
    for lineno, row in _records(path):
        if len(row) != width:
            return InputError(f"{path}: row {lineno} has {len(row)} fields, expected {width}")
        for value in row:
            try:
                float(value)
            except ValueError as exc:
                return InputError(f"{path}: row {lineno}: {exc}")
            # float() also takes these; numpy's parser does not
            if "_" in value or not value.isascii():
                return InputError(f"{path}: row {lineno}: could not convert string to float: "
                                  f"{value!r} (underscores and non-ASCII digits are not accepted)")
    return InputError(f"{path}: {detail}")


def _undecodable(path: str, exc: UnicodeDecodeError) -> str:
    """The decoder's complaint at the file line and byte of the first byte that
    is not UTF-8.  The decoder counts from its current chunk, so the raw lines
    are decoded one by one: no UTF-8 sequence holds the newline byte."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as bad:
                    return (f"'utf-8' codec can't decode byte 0x{line[bad.start]:02x} at line "
                            f"{lineno}, byte {bad.start + 1}: {bad.reason}")
    except (OSError, EOFError):  # a damaged .gz past the bad byte
        pass
    return str(exc)


def _middle(body: int, size: int) -> int:
    """The byte offset the body [body, size) is split at, or just past."""
    return body + (size - body) // 2


def _body_chunks(fh, body: int, size: int):
    """(starts, lines, split) of the body [body, size) of a binary file, or
    None if it holds a '"', since a quoted field may span lines.

    ``starts`` are line starts from ``body`` to ``size`` that cut the body
    into chunks of about SPLIT_CHUNK_BYTES, ``lines[i]`` counts the lines
    before ``starts[i]``, and ``starts[split]`` is the first line start at
    or past ``_middle`` (``size`` if none is).  The body is read once, a
    buffer at a time.
    """
    mid = max(_middle(body, size), body)
    starts, lines, split = [body], [0], 0 if mid == body else None
    buf = bytearray(SPLIT_CHUNK_BYTES)
    pos, count = body, 0
    fh.seek(body)
    while got := fh.readinto(buf):
        if buf.find(b'"', 0, got) >= 0:
            return None
        if split is None and pos + got >= mid:  # the newline ending the line at mid - 1
            i = buf.find(b"\n", max(mid - 1 - pos, 0), got)
            if i >= 0:
                starts.append(pos + i + 1)
                lines.append(count + buf.count(b"\n", 0, i + 1))
                split = len(starts) - 1
        count += int(np.count_nonzero(np.frombuffer(buf, np.uint8, got) == ord("\n")))
        end = buf.rfind(b"\n", 0, got) + 1
        if end and pos + end > starts[-1]:
            starts.append(pos + end)
            lines.append(count)
        pos += got
    if starts[-1] < size:  # a last line with no newline
        starts.append(size)
        lines.append(count + 1)
    return starts, lines, len(starts) - 1 if split is None else split


def _parse_chunks(path: str, starts, lines, chunks, table) -> None:
    """Parse the chunks ``chunks`` (indices into ``starts``) of the body
    into their rows of ``table``.  Raises if a chunk is not UTF-8, does not
    parse, or parses to another row count or width than its lines: a blank
    line, say."""
    with open(path, "rb") as fh:
        fh.seek(starts[chunks.start])
        for i in chunks:
            text = fh.read(starts[i + 1] - starts[i]).decode("utf-8")
            rows = np.loadtxt(text.split("\n"), **_LOADTXT)
            want = table[lines[i]:lines[i + 1]]
            if rows.shape != want.shape:
                raise ValueError(f"chunk {i} parsed to {rows.shape}, not {want.shape}")
            want[...] = rows


def _split_parse(path: str, raw_header):
    """The body's table, parsed by this process and a forked child into one
    shared array, or None where the serial parse must run instead.

    ``raw_header`` is the header's fields as the csv module read them.  The
    split runs on a plain regular file of at least SPLIT_MIN_BYTES whose
    first line is the header alone and whose body holds no '"', on a
    platform with fork and in a process that may run on two cores.  The
    child parses the chunks from the split on and leaves with ``os._exit``,
    so it never flushes the parent's stdio buffers or runs its exit
    handlers.  Every failure (a half does not read or parse, or its rows are
    not its lines; the child exits non-zero or is killed) gives None, and
    the child is reaped on every path.
    """
    if str(path).endswith(".gz") or not hasattr(os, "fork") or _cores() < 2:
        return None
    try:
        info = os.stat(path)
        if not stat.S_ISREG(info.st_mode):
            return None  # a pipe's bytes cannot be read twice
        with open(path, "rb") as fh:
            header = ",".join(raw_header).encode("utf-8")
            first = fh.readline(len(header) + 2)
            if first not in (header + b"\n", header + b"\r\n"):
                return None  # quoted names, or a line end the text reader reads differently
            if info.st_size - len(first) < SPLIT_MIN_BYTES:
                return None
            chunks = _body_chunks(fh, len(first), info.st_size)
        if chunks is None or chunks[1][-1] == 0:
            return None
        import gc  # only a split parse loads these, as the serial path needs none
        import mmap
        import signal
        starts, lines, split = chunks
        table = np.ndarray((lines[-1], len(raw_header)),
                           buffer=mmap.mmap(-1, lines[-1] * len(raw_header) * 8))
        with warnings.catch_warnings():
            # Python 3.12 warns that forking a process with threads (the
            # BLAS pool) may deadlock the child, which only parses and exits
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            gc.disable()  # a collection would copy the parent's pages and run its finalizers
            warnings.simplefilter("ignore")  # the child writes nothing to the inherited stdio
            _parse_chunks(path, starts, lines, range(split, len(starts) - 1), table)
            code = 0
        finally:
            os._exit(code)
    parsed = False
    try:
        _parse_chunks(path, starts, lines, range(split), table)
        parsed = True
    except (ValueError, OSError):  # the serial parse raises the error, at its location
        pass
    finally:  # also on a KeyboardInterrupt
        if not parsed:
            os.kill(pid, signal.SIGKILL)
        _, status = os.waitpid(pid, 0)
    return table if parsed and status == 0 else None


def read_csv(path: str, tau_rule: str = "max", standardize: bool = True) -> SurvivalDataset:
    """Read the `time,status,u1,...,up` CSV schema (optionally gzipped).

    numpy's C parser reads the body into one float array, on two cores
    where ``_split_parse`` can, else in one pass; the text is re-scanned
    only to locate an error.  Bytes that are not UTF-8 and a damaged or
    non-gzip ``.gz`` stream are input errors naming the path and the cause.
    """
    level = _tau_level(tau_rule, standardize)
    try:
        fh = _open_text(path)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            raw_header = next(csv.reader(fh), None)
            if raw_header is None:
                raise InputError(f"{path}: empty file")
            header = tuple(h.strip() for h in raw_header)
            if len(header) < 3 or header[0] != CSV_TIME_COLUMN or header[1] != CSV_STATUS_COLUMN:
                raise InputError(
                    f"{path}: header must be '{CSV_TIME_COLUMN},{CSV_STATUS_COLUMN},u1,...'"
                )
            first = {}
            for col, name in enumerate(header[2:]):
                if first.setdefault(name, col) != col:
                    raise InputError(f"{path}: predictor columns {first[name] + 1} and "
                                     f"{col + 1} are both named {name!r}")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # no data rows, reported below
                table = _split_parse(path, raw_header)
                if table is None:
                    try:
                        table = np.loadtxt(fh, **_LOADTXT)
                    except ValueError as exc:  # undecodable bytes, too: the re-scan raises them
                        raise _parse_error(path, len(header), exc) from None
    except UnicodeDecodeError as exc:
        raise InputError(f"cannot read {path}: {_undecodable(path, exc)}") from None
    except (OSError, EOFError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    if len(table) == 0:
        raise InputError(f"{path}: no data rows")
    if table.shape[1] != len(header):
        raise _parse_error(path, len(header), f"{table.shape[1]} fields per row")

    def locate(index: int) -> str:
        lineno, _ = next(itertools.islice(_records(path), index, None))
        return f"row {index + 1} (line {lineno})"

    try:
        return _build(table[:, 0], table[:, 1], table[:, 2:], level, standardize,
                      header[2:], locate)
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
