import gzip
import os
import signal
import threading
import time
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from survscreen import ScenarioSpec, dataset, generate_scenario, simulate
from survscreen.cli import main
from survscreen.dataset import BLOCK_COLUMNS, ingest, lower_quantile, parse_tau_rule, read_csv
from survscreen.errors import InputError

from conftest import build_out_of_place, ingest_out_of_place, run_python, same_bits

W = BLOCK_COLUMNS


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


def test_non_binary_status_printed_as_plain_number():
    with pytest.raises(InputError, match=r"^non-binary status 2\.0 in row 2$"):
        ingest([[1, 1, 0.5], [2, 2, -0.1]])


def test_non_finite_predictor_named(tmp_path):
    path = tmp_path / "named.csv"
    _write_csv(path, "time,status,age,dose\n1,1,0.5,1.0\n2,0,-0.1,nan\n")
    with pytest.raises(InputError) as exc:
        read_csv(str(path))
    assert str(exc.value) == f"{path}: non-finite predictor value in row 2 (line 3), column 2 ('dose')"


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
    assert parse_tau_rule("max") == 1.0
    assert parse_tau_rule("q:0.9") == 0.9
    for bad in ("q:", "q:2", "median", "q:-0.1", "max_observed", "quantile:0.5"):
        with pytest.raises(InputError):
            parse_tau_rule(bad)


def test_dataset_is_immutable():
    data = ingest([[1, 1, 0.5], [2, 0, -0.1]], standardize=False)
    with pytest.raises(ValueError):
        data.x[0] = 5.0
    with pytest.raises(ValueError):
        data.predictors[0, 0] = 5.0


def test_column_resolution(tmp_path):
    path = tmp_path / "named.csv"
    _write_csv(path, "time,status,age,dose\n1,1,0.5,1.0\n2,0,-0.1,2.0\n")
    data = read_csv(str(path), standardize=False)
    assert data.predictor_names == ("age", "dose")
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


@pytest.mark.parametrize("body", ["1,1,0.5,abc\n2,0,0.1,0.2\n", "1,1,0.5\n", "1,1,0.5,0.2\n"],
                         ids=["bad value", "short row", "one row"])
def test_read_csv_reports_a_repeated_name_before_the_body(tmp_path, body):
    path = tmp_path / "dup.csv"
    _write_csv(path, "time,status,a,a\n" + body)
    with pytest.raises(InputError) as exc:
        read_csv(str(path))
    assert str(exc.value) == f"{path}: predictor columns 1 and 2 are both named 'a'"


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


@pytest.mark.parametrize("names,message", [
    ("u,u", "predictor columns 1 and 2 are both named 'u'"),
    ("x,x,x", "predictor columns 1 and 2 are both named 'x'"),
    ("a,b,a,b", "predictor columns 1 and 3 are both named 'a'"),
    ("u1, u2 ,u2 ", "predictor columns 2 and 3 are both named 'u2'"),  # names are stripped
])
def test_read_csv_rejects_a_repeated_predictor_name(tmp_path, names, message):
    path = tmp_path / "dup.csv"
    width = names.count(",") + 1
    rows = "".join(f"{i},{i % 2}," + ",".join(str(i * k) for k in range(width)) + "\n"
                   for i in range(1, 4))
    _write_csv(path, f"time,status,{names}\n" + rows)
    with pytest.raises(InputError) as exc:
        read_csv(str(path))
    assert str(exc.value) == f"{path}: {message}"


def _table(rng, n, p):
    return np.column_stack((rng.exponential(1.0, n), rng.random(n) < 0.7,
                            rng.normal(3.0, 9.0, (n, p))))


def _layout(table, layout):
    """``table`` as a C array, a column cut of a wider C array, an F array or a list."""
    if layout == "sliced C":
        wide = np.zeros((len(table), table.shape[1] + 3))
        wide[:, 1:-2] = table
        return wide[:, 1:-2]
    convert = {"C": np.ascontiguousarray, "F": np.asfortranarray, "list": np.ndarray.tolist}
    return convert[layout](table)


def _assert_out_of_place(rows, tau_rule, standardize):
    data = ingest(rows, tau_rule=tau_rule, standardize=standardize)
    x, delta, u, tau = ingest_out_of_place(rows, tau_rule, standardize)
    assert same_bits(data.x, x) and same_bits(data.delta, delta)
    assert same_bits(data.predictors, u) and data.tau == tau
    assert data.predictors.flags.f_contiguous


# p on both sides of one and two block edges: p = W + 1 and 2W + 1 end in a
# one-column remainder, which numpy would sum pairwise, not row by row
@pytest.mark.parametrize("p", [1, 2, W - 1, W, W + 1, 2 * W + 1, 5000])
@pytest.mark.parametrize("n", [2, 301, 2000])
@pytest.mark.parametrize("layout", ["C", "sliced C", "F", "list"])
@pytest.mark.parametrize("standardize", [True, False])
def test_ingest_bitwise_equal_to_out_of_place_formulas(p, n, layout, standardize):
    tau_rule = "max" if standardize else "q:0.8"  # both rules, without doubling the grid
    _assert_out_of_place(_layout(_table(np.random.default_rng(p), n, p), layout), tau_rule,
                         standardize)


def test_ingest_bitwise_equal_to_out_of_place_formulas_on_random_tables():
    rng = np.random.default_rng(20)
    layouts = ["C", "sliced C", "F", "list"]
    for i in range(320):
        n = int(rng.integers(2, 400))
        p = int(rng.integers(1, 4 * W))
        if i % 2:  # half the tables end within two columns of a block edge
            p = int(rng.integers(1, 4)) * W + int(rng.integers(-2, 3))
        table = _table(rng, n, p)
        table[:, 2:] = table[:, 2:] * rng.exponential(10.0, p) + rng.normal(0.0, 100.0, p)
        tau_rule = "q:0.7" if i % 3 == 0 else "max"
        _assert_out_of_place(_layout(table, layouts[i % 4]), tau_rule, bool(i % 5))


@pytest.mark.parametrize("model", ["N", "A1", "A2"])
@pytest.mark.parametrize("n,p,censoring", [(200, 2 * W + 1, "light"), (300, 4 * W - 24, "heavy")])
def test_generate_scenario_bitwise_equal_to_out_of_place_formulas(monkeypatch, model, n, p,
                                                                  censoring):
    drawn = []
    build = simulate._build

    def spy(time, status, predictors, **kwargs):
        drawn.append((time, status, predictors))
        return build(time, status, predictors, **kwargs)

    monkeypatch.setattr(simulate, "_build", spy)
    data, _ = generate_scenario(ScenarioSpec(model=model, censoring=censoring, n=n, p=p, seed=11))
    (time, status, u), = drawn
    assert u.flags.c_contiguous  # the draws' own layout, not a slice of a table
    x, delta, want, tau = build_out_of_place(time, status, u)
    assert same_bits(data.x, x) and same_bits(data.delta, delta)
    assert same_bits(data.predictors, want) and data.tau == tau


@pytest.mark.parametrize("standardize", [True, False])
def test_non_finite_value_reported_before_zero_variance_across_blocks(tmp_path, standardize):
    # three blocks: a constant column in the first, an inf at row 10 in the
    # second and a NaN at row 6 in the third, the first in row-major order
    table = _table(np.random.default_rng(3), 30, 3 * W)
    table[:, 2 + 4] = 7.0
    table[9, 2 + W + 1] = np.inf
    table[5, 2 + 2 * W + 5] = np.nan
    with pytest.raises(InputError) as exc:
        ingest(table, standardize=standardize)
    col = 2 * W + 6
    assert str(exc.value) == f"non-finite predictor value in row 6, column {col} ('u{col}')"

    path = tmp_path / "late.csv"
    header = "time,status," + ",".join(f"u{k + 1}" for k in range(3 * W))
    lines = [",".join(repr(float(v)) for v in row) for row in table]
    _write_csv(path, header + "\n\n" + "\n".join(lines) + "\n")  # a blank line 2
    with pytest.raises(InputError) as exc:
        read_csv(str(path), standardize=standardize)
    assert str(exc.value) == (f"{path}: non-finite predictor value in row 6 (line 8), "
                              f"column {col} ('u{col}')")

    table[5, 2 + 2 * W + 5] = 1.0
    table[9, 2 + W + 1] = 1.0
    with pytest.raises(InputError) as exc:
        ingest(table, standardize=standardize)
    assert str(exc.value) == "predictor column 'u5' (index 5) has zero variance"


@pytest.mark.parametrize("standardize", [True, False])
def test_overflowing_variance_rejected(tmp_path, capsys, standardize):
    table = _table(np.random.default_rng(4), 50, 3)
    table[:, 3] *= 1e200  # finite values whose squares overflow
    message = "predictor column 'u2' (index 2) has a variance that overflows float64"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as exc:
            ingest(table, standardize=standardize)
    assert str(exc.value) == message

    table[7, 2 + 2] = np.nan  # a non-finite value is reported first
    with pytest.raises(InputError, match="non-finite predictor value in row 8, column 3"):
        ingest(table, standardize=standardize)

    path = tmp_path / "huge.csv"
    table[7, 2 + 2] = 0.5
    np.savetxt(path, table, delimiter=",", fmt="%.17g", header="time,status,u1,u2,u3",
               comments="")
    assert main(["screen", str(path), "--seed", "1"]) == 2
    assert capsys.readouterr().err.strip() == f"survscreen: error: {path}: {message}"


@pytest.mark.parametrize("standardize", [True, False])
def test_ingest_never_writes_or_aliases_the_table(standardize):
    table = np.asfortranarray(_table(np.random.default_rng(5), 40, 3))
    before = table.copy()
    data = ingest(table, tau_rule="q:0.5", standardize=standardize)  # caps half the times
    assert same_bits(table, before) and table.flags.writeable
    for arr in (data.x, data.delta, data.predictors):
        assert not np.shares_memory(arr, table)


READ_CSV_PEAK = """
import resource, sys
from survscreen import dataset
dataset.SPLIT_MIN_BYTES = 0  # both reads take the two-process parse
dataset._cores = lambda: 2
dataset.read_csv(sys.argv[1])  # first call: lazy imports and parser set-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
data = dataset.read_csv(sys.argv[2])
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
print((peak - before) * 1024 / data.predictors.nbytes, child / peak)
"""


def test_read_csv_peak_memory_bounded(tmp_path):
    # ru_maxrss is in KiB on Linux.  Python lists of floats cost about 8x the matrix.
    n, p = 500, 2000
    rng = np.random.default_rng(9)
    header = "time,status," + ",".join(f"u{k + 1}" for k in range(p))
    big, small = tmp_path / "big.csv", tmp_path / "small.csv"
    np.savetxt(big, _table(rng, n, p), delimiter=",", fmt="%.17g", header=header, comments="")
    np.savetxt(small, _table(rng, 5, 2), delimiter=",", header="time,status,u1,u2", comments="")
    ratio, child = map(float, run_python(["-c", READ_CSV_PEAK, str(small), str(big)],
                                         blas_threads=1).split())
    assert ratio <= 2.5  # the parsed table plus U
    assert 0.0 < child <= 1.0  # a parsing child ran, and its peak is within the caller's


def test_read_csv_gzip_quotes_and_blank_lines(tmp_path):
    body = 'time,status,u1,u2\n\n"1.0",1,0.5,"2.0"\n\n2.5,0,-0.1,1.0\n3.0,1,0.7,0.5\n\n'
    want = ingest([[1.0, 1, 0.5, 2.0], [2.5, 0, -0.1, 1.0], [3.0, 1, 0.7, 0.5]])
    for name, compress in (("q.csv", False), ("q.csv.gz", True)):
        _write_csv(tmp_path / name, body, compress)
        data = read_csv(str(tmp_path / name))
        assert same_bits(data.x, want.x) and same_bits(data.delta, want.delta)
        assert same_bits(data.predictors, want.predictors)
        assert data.predictor_names == ("u1", "u2")


READ_CSV_ERRORS = [
    ("1,1,0.5\n#2,0,0.1\n3,1,0.7\n", "row 3: could not convert string to float: '#2'"),
    ("", "no data rows"),
    ("\n\n", "no data rows"),
    ("1,1,0.5\n2,0\n", "row 3 has 2 fields, expected 3"),
    ("1,1\n2,0\n", "row 2 has 2 fields, expected 3"),
    ("1,1,0.5\n   \n3,1,0.7\n", "row 3 has 1 fields, expected 3"),
    ("1,1,0.5\n2,0,abc\n", "row 3: could not convert string to float: 'abc'"),
    ("1,1,0.5\n2,0,\n", "row 3: could not convert string to float: ''"),
    ("1,1,0.5\n2,0,1_000\n", "row 3: could not convert string to float: '1_000' "
                            "(underscores and non-ASCII digits are not accepted)"),
    ("1,1,0.5\n2,0,\u0664\n", "row 3: could not convert string to float: '\u0664' "
                              "(underscores and non-ASCII digits are not accepted)"),
    ("1,1,0.5\n\n2,0,nan\n3,1,0.7\n", "non-finite predictor value in row 2 (line 4), column 1 ('u1')"),
    ("inf,1,0.5\n2,0,0.1\n", "non-finite time in row 1 (line 2)"),
    ("1,1,0.5\n2,2,0.1\n", "non-binary status 2.0 in row 2 (line 3)"),
    # a quoted field spanning two lines: locations count file lines, not records
    ('1,1,"0.5\n"\n2,2,0.1\n', "non-binary status 2.0 in row 2 (line 4)"),
    ('1,1,"0.5\n"\n2,0\n', "row 4 has 2 fields, expected 3"),
]


@pytest.mark.parametrize("body,message", READ_CSV_ERRORS)
@pytest.mark.parametrize("compress", [False, True])
def test_read_csv_error_messages(tmp_path, body, message, compress):
    path = tmp_path / ("bad.csv.gz" if compress else "bad.csv")
    _write_csv(path, "time,status,u1\n" + body, compress)
    with pytest.raises(InputError) as exc:
        read_csv(str(path))
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("compress", [False, True])
def test_read_csv_names_the_line_and_byte_of_a_non_utf8_byte(tmp_path, compress):
    # about 400 KB: the bad byte lies far past the decoder's first text chunk
    rows = [b"%d.5,%d,0.%d,-1.25" % (i, i % 2, i % 7) for i in range(20000)]
    rows[15000] = b"15000.5,1,0.3,-1\xff.25"  # file line 15,002
    raw = b"time,status,u1,u2\n" + b"\n".join(rows) + b"\n"
    assert len(raw) > 380_000
    path = tmp_path / ("bad.csv.gz" if compress else "bad.csv")
    path.write_bytes(gzip.compress(raw) if compress else raw)
    with pytest.raises(InputError) as exc:
        read_csv(str(path))
    assert str(exc.value) == (f"cannot read {path}: 'utf-8' codec can't decode byte 0xff "
                              "at line 15002, byte 17: invalid start byte")


# -- the two-process parse ------------------------------------------------------

TOY = Path(__file__).resolve().parent / "data" / "toy_screen.csv"


@pytest.fixture
def spied(monkeypatch):
    """Records whether each two-process parse read_csv tries gives the table
    (``ran``) and the pid of each child forked; afterwards every child has
    been reaped."""
    state = SimpleNamespace(ran=[], pids=[])
    split_parse, fork = dataset._split_parse, os.fork

    def spy(*args):
        table = split_parse(*args)
        state.ran.append(table is not None)
        return table

    def spy_fork():
        pid = fork()
        if pid:
            state.pids.append(pid)
        return pid

    monkeypatch.setattr(dataset, "_split_parse", spy)
    monkeypatch.setattr(os, "fork", spy_fork)
    yield state
    for pid in state.pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    try:
        assert os.waitpid(-1, os.WNOHANG) == (0, 0)  # only children still running, if any
    except ChildProcessError:  # no child at all
        pass


@pytest.fixture
def split(monkeypatch, spied):
    """``spied``, with the two-process parse taken on any body and any cores."""
    monkeypatch.setattr(dataset, "SPLIT_MIN_BYTES", 0)
    monkeypatch.setattr(dataset, "_cores", lambda: 2)
    return spied


def _serial(path, **kwargs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dataset, "_split_parse", lambda *args: None)
        return read_csv(str(path), **kwargs)


def _assert_same(got, want):
    assert same_bits(got.x, want.x) and same_bits(got.delta, want.delta)
    assert same_bits(got.predictors, want.predictors)
    assert got.tau == want.tau and got.predictor_names == want.predictor_names


def _toy_bytes(form):
    """toy_screen.csv as is, with CRLF line ends, or with no trailing newline."""
    raw = TOY.read_bytes()
    if form == "CRLF":
        return raw.replace(b"\n", b"\r\n")
    return raw.rstrip(b"\n") if form == "no trailing newline" else raw


def _line_starts(raw):
    body = raw.index(b"\n") + 1
    return [body] + [i + 1 for i in range(body, len(raw)) if raw[i] == ord("\n")]


def _parses_at_every_split(path, want):
    """Parse the body's chunks into one table at every split index, the two
    ranges one after the other in this process, and check each table is
    ``want``; the count of split indices."""
    with open(path, "rb") as fh:
        starts, lines = dataset._body_chunks(fh, len(fh.readline()), path.stat().st_size)
    for split in range(len(starts)):
        table = np.full(want.shape, np.nan)
        dataset._parse_chunks(str(path), starts, lines, range(split), table)
        dataset._parse_chunks(str(path), starts, lines, range(split, len(starts) - 1), table)
        assert same_bits(table, want)
    return len(starts)


def _serial_table(path):
    """The table the serial parse reads from a CSV whose header is plain."""
    with open(path, encoding="utf-8") as fh:
        next(fh)
        return np.loadtxt(fh, **dataset._LOADTXT)


@pytest.mark.parametrize("form", ["as is", "CRLF", "no trailing newline"])
@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_split_parse_is_the_serial_table_at_every_chunk_start(tmp_path, monkeypatch, split,
                                                             form, chunk):
    raw = _toy_bytes(form)
    path = tmp_path / "toy.csv"
    path.write_bytes(raw)
    monkeypatch.setattr(dataset, "SPLIT_CHUNK_BYTES", chunk)  # chunk edges in every line
    splits = _parses_at_every_split(path, _serial_table(path))
    if chunk == 1:  # every line start is a chunk start
        assert splits == len(set(_line_starts(raw) + [len(raw)]))
    _assert_same(read_csv(str(path), standardize=False), _serial(path, standardize=False))
    assert split.ran == [True] and len(split.pids) == 1


@pytest.mark.parametrize("form", ["as is", "CRLF", "no trailing newline"])
@pytest.mark.parametrize("chunk", [1, 7, 1 << 20])
def test_body_chunks_cut_the_body_at_the_last_line_start_of_each_buffer(monkeypatch, tmp_path,
                                                                        form, chunk):
    raw = _toy_bytes(form)
    monkeypatch.setattr(dataset, "SPLIT_CHUNK_BYTES", chunk)
    path = tmp_path / "toy.csv"
    path.write_bytes(raw)
    line_starts = _line_starts(raw)
    body = line_starts[0]
    want = [body]
    for a in range(body, len(raw), chunk):
        want += [s for s in line_starts if a < s <= a + chunk][-1:]
    if want[-1] < len(raw):  # a last line with no newline
        want.append(len(raw))
    with open(path, "rb") as fh:
        starts, lines = dataset._body_chunks(fh, body, len(raw))
    assert starts == want
    assert lines == [raw[body:s].count(b"\n") for s in starts[:-1]] + [16]


def test_split_parse_is_the_serial_table_on_random_tables(tmp_path, monkeypatch, split):
    rng = np.random.default_rng(25)
    path = tmp_path / "random.csv"
    for i in range(240):
        n, p = int(rng.integers(2, 40)), int(rng.integers(1, 30))
        table = _table(rng, n, p)
        table[:, 2:] *= 10.0 ** rng.integers(-150, 150, p)  # exponents of every width
        newline = "\r\n" if i % 3 == 0 else "\n"
        np.savetxt(path, table, delimiter=",", fmt="%.17g", newline=newline, comments="",
                   header="time,status," + ",".join(f"u{k + 1}" for k in range(p)))
        if i % 4 == 0:
            path.write_bytes(path.read_bytes().rstrip(b"\r\n"))
        monkeypatch.setattr(dataset, "SPLIT_CHUNK_BYTES",
                            int(rng.integers(1, 2 * path.stat().st_size)))
        assert same_bits(_serial_table(path), table)
        _parses_at_every_split(path, table)
        got = read_csv(str(path), standardize=False)
        assert split.ran[-1]
        _assert_same(got, _serial(path, standardize=False))
        assert same_bits(got.predictors, table[:, 2:]) and same_bits(got.x, table[:, 0])


def test_a_large_body_is_split_where_two_cores_may_run(tmp_path, spied):
    # unpatched: on one core (taskset -c 0) this takes the serial parse
    path = tmp_path / "large.csv"
    p = 300
    np.savetxt(path, _table(np.random.default_rng(6), 400, p), delimiter=",", fmt="%.17g",
               header="time,status," + ",".join(f"u{k + 1}" for k in range(p)), comments="")
    assert path.stat().st_size > 2 << 20
    _assert_same(read_csv(str(path)), _serial(path))
    assert spied.ran == [dataset._cores() > 1] and len(spied.pids) == spied.ran[0]


def _write_toy(path, edit=lambda raw: raw):
    raw = edit(TOY.read_bytes())
    if str(path).endswith(".gz"):
        path.write_bytes(gzip.compress(raw))
    else:
        path.write_bytes(raw)
    return path


def _blank_line_at(index):
    def edit(raw):
        lines = raw.split(b"\n")
        return b"\n".join(lines[:index] + [b""] + lines[index:])
    return edit


def _through_fifo(path):
    """A FIFO beside ``path`` that a thread fills with its bytes for one reader."""
    fifo = path.with_suffix(".pipe")
    os.mkfifo(fifo)
    threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True).start()
    return fifo


def _crlf(edit):
    return lambda raw: edit(raw).replace(b"\n", b"\r\n")


@pytest.mark.parametrize("name,edit,forked", [
    ("toy.csv.gz", lambda raw: raw, False),
    ("quoted.csv", lambda raw: raw.replace(b"\n0.62,", b'\n"0.62",', 1), False),
    ("quoted_header.csv", lambda raw: raw.replace(b"u1", b'"u1"', 1), False),
    ("blank_first_half.csv", _blank_line_at(2), True),
    ("blank_second_half.csv", _blank_line_at(-2), True),
    ("lone_cr.csv", lambda raw: raw.replace(b"\n", b"\r", 3).replace(b"\r", b"\n", 1), True),
    ("blank_after_header.csv", _blank_line_at(1), True),
    ("blank_last.csv", lambda raw: raw + b"\n", True),
    ("crlf_blank_after_header.csv", _crlf(_blank_line_at(1)), True),
    ("crlf_blank_first_half.csv", _crlf(_blank_line_at(2)), True),
    ("crlf_blank_last.csv", _crlf(lambda raw: raw + b"\n"), True),
    ("toy.fifo", lambda raw: raw, False),  # read through a FIFO: not a regular file
], ids=lambda v: v if isinstance(v, str) else "")
def test_split_parse_falls_back_to_the_serial_parse(tmp_path, split, name, edit, forked):
    path = _write_toy(tmp_path / name, edit)
    source = _through_fifo(path) if name.endswith(".fifo") else path
    _assert_same(read_csv(str(source), standardize=False), _serial(path, standardize=False))
    assert split.ran == [False] and len(split.pids) == forked


def test_split_parse_falls_back_on_one_core(tmp_path, monkeypatch, split):
    monkeypatch.setattr(dataset, "_cores", lambda: 1)
    path = _write_toy(tmp_path / "toy.csv")
    _assert_same(read_csv(str(path), standardize=False), _serial(path, standardize=False))
    assert split.ran == [False] and split.pids == []


def test_split_parse_falls_back_when_the_child_is_killed(tmp_path, monkeypatch, split):
    parent = os.getpid()
    parse_chunks = dataset._parse_chunks

    def parse_or_die(*args):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        parse_chunks(*args)

    monkeypatch.setattr(dataset, "_parse_chunks", parse_or_die)
    path = _write_toy(tmp_path / "toy.csv")
    _assert_same(read_csv(str(path), standardize=False), _serial(path, standardize=False))
    assert split.ran == [False] and len(split.pids) == 1


def test_split_parse_kills_and_reaps_the_child_on_a_keyboard_interrupt(tmp_path, monkeypatch,
                                                                       split):
    parent = os.getpid()

    def interrupted(*args):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(60)  # a child left to finish would hold the caller this long

    monkeypatch.setattr(dataset, "_parse_chunks", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        read_csv(str(_write_toy(tmp_path / "toy.csv")))
    assert time.monotonic() - start < 30
    assert len(split.pids) == 1  # the fixture checks that it was reaped


@pytest.mark.parametrize("body,message", READ_CSV_ERRORS)
@pytest.mark.parametrize("compress", [False, True])
def test_read_csv_error_messages_with_the_split_forced(split, tmp_path, body, message, compress):
    test_read_csv_error_messages(tmp_path, body, message, compress)


@pytest.mark.parametrize("compress", [False, True])
def test_non_utf8_byte_named_with_the_split_forced(split, tmp_path, compress):
    test_read_csv_names_the_line_and_byte_of_a_non_utf8_byte(tmp_path, compress)
    assert split.ran == [False] and len(split.pids) == (not compress)


BUFFERED_PRINT = """
import sys
from survscreen import dataset
dataset.SPLIT_MIN_BYTES = 0
dataset._cores = lambda: 2
split_parse, ran = dataset._split_parse, []

def spy(*args):
    table = split_parse(*args)
    ran.append(table is not None)
    return table

dataset._split_parse = spy
print("before read_csv")  # stdout is a pipe: this waits in the buffer while the child runs
print(dataset.read_csv(sys.argv[1]).n, ran)
"""


def test_a_buffered_print_before_read_csv_is_written_once(tmp_path):
    path = _write_toy(tmp_path / "toy.csv")
    out = run_python(["-c", BUFFERED_PRINT, str(path)], blas_threads=1)
    assert out == "before read_csv\n16 [True]\n"
