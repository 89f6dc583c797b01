import gzip
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import survscreen
from survscreen.cli import main

from conftest import run_python, src_env

DATA = Path(__file__).parent / "data"
TOY = str(DATA / "toy_screen.csv")


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def mask_timing(text: str) -> str:
    return re.sub(r'"timing_ms": [0-9.eE+-]+', '"timing_ms": 0', text)


def screen_args(**overrides):
    args = {
        "--method": "stabilized", "--orderings": "3", "--seed": "7",
        "--qn": "half", "--variant": "full", "--alpha": "0.05", "--tau": "max",
    }
    args.update(overrides)
    flat = [TOY]
    for key, value in args.items():
        flat += [key, value]
    return ["screen"] + flat


class TestScreen:
    def test_report_schema_matches_golden(self, capsys):
        rc, out, _ = run_cli(capsys, screen_args())
        assert rc == 0
        got = json.loads(mask_timing(out))
        want = json.loads((DATA / "golden_screen.json").read_text())

        def compare(a, b, path=""):
            assert type(a) is type(b), f"type mismatch at {path}"
            if isinstance(a, dict):
                assert sorted(a) == sorted(b), f"key mismatch at {path}"
                for key in a:
                    compare(a[key], b[key], f"{path}.{key}")
            elif isinstance(a, list):
                assert len(a) == len(b), f"length mismatch at {path}"
                for i, (x, y) in enumerate(zip(a, b)):
                    compare(x, y, f"{path}[{i}]")
            elif isinstance(a, float):
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12), f"value at {path}"
            else:
                assert a == b, f"value at {path}"

        compare(got, want)

    def test_byte_identical_across_runs_and_threads(self):
        # the BLAS pool is the only thread count left; it may change the
        # last bits of the blocked selection products, never the report
        argv = ["-m", "survscreen.cli"] + screen_args()
        first = mask_timing(run_python(argv, blas_threads=1))
        second = mask_timing(run_python(argv, blas_threads=2))
        assert first == second

    def test_config_echo_round_trips(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            screen_args(**{"--orderings": "2", "--alpha": "0.1", "--variant": "prefix",
                           "--tau": "q:0.9", "--qn": "9", "--seed": "42"}),
        )
        assert rc == 0
        cfg = json.loads(out)["config"]
        assert cfg["orderings"] == 2
        assert cfg["alpha"] == 0.1
        assert cfg["variant"] == "prefix"
        assert cfg["tau"] == "q:0.9"
        assert cfg["qn"] == 9
        assert cfg["seed"] == 42
        assert cfg["method"] == "stabilized"

    def test_adjusted_p_invariant(self, capsys):
        _, out, _ = run_cli(capsys, screen_args(**{"--orderings": "4"}))
        report = json.loads(out)
        assert report["adjusted_p_value"] == min(1.0, 4 * report["p_value"])
        per_ordering = [o["p_value"] for o in report["orderings"]]
        assert report["p_value"] == min(per_ordering)

    def test_single_uncensored_predictor_matches_ols(self, capsys, tmp_path):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(30)
        t = 0.4 * u + rng.standard_normal(30)
        path = tmp_path / "toy1.csv"
        lines = ["time,status,u1"] + [f"{t[i]},1,{u[i]}" for i in range(30)]
        path.write_text("\n".join(lines) + "\n")

        rc, out, _ = run_cli(
            capsys, ["screen", str(path), "--method", "bonferroni", "--seed", "1",
                     "--no-standardize"])
        assert rc == 0
        est = json.loads(out)["estimate"]
        ols = np.cov(u, t, bias=True)[0, 1] / np.var(u)
        assert est == pytest.approx(ols, abs=1e-10)

    def test_oracle_method(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["screen", TOY, "--method", "oracle", "--oracle-k", "u2", "--seed", "3"]
        )
        assert rc == 0
        report = json.loads(out)
        assert report["selected"] == {"index": 2, "name": "u2"}
        assert report["adjusted_p_value"] == report["p_value"]

    @pytest.mark.parametrize("k", ["²", "١"])
    def test_oracle_k_in_digits_that_are_not_ascii_exits_2(self, capsys, k):
        # int() reads both, as 2 and 1; only ASCII digits index a column
        rc, out, err = run_cli(capsys, ["screen", TOY, "--method", "oracle", "--oracle-k", k,
                                        "--seed", "1"])
        assert rc == 2
        assert out == ""
        assert f"unknown predictor {k!r}" in err

    def test_oracle_requires_k(self, capsys):
        # checked before the CSV is read, so the missing file is not reached
        rc, _, err = run_cli(capsys, ["screen", "/nonexistent.csv", "--method", "oracle",
                                      "--seed", "3"])
        assert rc == 2
        assert "requires --oracle-k" in err

    @pytest.mark.parametrize("argv,option", [
        (["--method", "bonferroni", "--orderings", "0"], "--orderings"),
        (["--method", "oracle", "--oracle-k", "u1", "--qn", "3", "--variant", "prefix"], "--qn"),
        (["--method", "stabilized", "--oracle-k", "nosuch"], "--oracle-k"),
    ])
    def test_option_the_method_ignores_exits_2(self, capsys, argv, option):
        # the file does not exist: the check comes before the CSV is read
        rc, out, err = run_cli(capsys, ["screen", "/nonexistent.csv", "--seed", "1"] + argv)
        assert rc == 2
        assert out == ""
        assert f"error: {option} is read only by --method" in err

    def test_malformed_status_exits_2_with_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,status,u1\n1.0,1,0.5\n2.0,2,0.1\n3.0,1,0.7\n")
        rc, _, err = run_cli(capsys, ["screen", str(path), "--seed", "1"])
        assert rc == 2
        assert "row 2" in err

    def test_repeated_predictor_name_exits_2(self, capsys, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("time,status,u,u\n1.0,1,0.5,1\n2.0,0,0.1,3\n3.0,1,0.7,2\n")
        rc, out, err = run_cli(capsys, ["screen", str(path), "--method", "oracle",
                                        "--oracle-k", "u", "--seed", "1"])
        assert rc == 2
        assert out == ""
        assert f"{path}: predictor columns 1 and 2 are both named 'u'" in err

    def test_default_qn_runs_from_three_rows(self, capsys, tmp_path):
        path = tmp_path / "three.csv"
        path.write_text("time,status,u1,u2\n1.0,1,0.5,1.2\n2.0,1,0.1,-0.3\n3.0,1,0.7,0.4\n")
        rc, out, _ = run_cli(capsys, ["screen", str(path), "--seed", "1"])
        assert rc == 0
        assert json.loads(out)["config"]["qn"] == "half"
        path.write_text("time,status,u1\n1.0,1,0.5\n2.0,1,0.1\n")
        rc, out, err = run_cli(capsys, ["screen", str(path), "--seed", "1"])
        assert (rc, out) == (2, "")
        assert err == ("survscreen: error: the stabilized screen needs at least 3 "
                       "observations, got 2\n")

    def test_degenerate_input_exits_3(self, capsys, tmp_path):
        path = tmp_path / "cens.csv"
        rows = [f"{0.5 + 0.1 * i},0,{(-1) ** i * (1 + i)}" for i in range(12)]
        path.write_text("time,status,u1\n" + "\n".join(rows) + "\n")
        rc, _, err = run_cli(capsys, ["screen", str(path), "--seed", "1"])
        assert rc == 3
        assert "degeneracy" in err

    @pytest.mark.parametrize("method", [["bonferroni"], ["oracle", "--oracle-k", "u1"]])
    def test_dual_form_disagreement_exits_3(self, capsys, tmp_path, method):
        # far from zero, the uncentred moments lose the digits the two forms share
        data, _ = survscreen.generate_scenario(
            survscreen.ScenarioSpec(model="A1", censoring="light", n=300, p=2, seed=3))
        table = np.column_stack((data.x, data.delta, 1e4 + 1e-3 * data.predictors[:, 0],
                                 data.predictors[:, 1]))
        path = tmp_path / "far.csv"
        np.savetxt(path, table, delimiter=",", fmt="%.17g", header="time,status,u1,u2",
                   comments="")
        rc, out, err = run_cli(capsys, ["screen", str(path), "--no-standardize", "--seed", "1",
                                        "--method", *method])
        assert (rc, out) == (3, "")
        assert err == ("survscreen: numerical degeneracy: one-step forms disagree by 0.322 "
                       "for predictor 0\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", [["stabilized", "--variant", "full"],
                                        ["stabilized", "--variant", "prefix"],
                                        ["bonferroni"], ["oracle", "--oracle-k", "u1"]])
    def test_influence_values_that_overflow_exit_3(self, capsys, tmp_path, method):
        # raw-scale predictors of order 1e120 overflow the influence values
        # to NaN, which no floor passes: no report, whose JSON would hold NaN
        table = np.loadtxt(TOY, delimiter=",", skiprows=1)
        table[:, 2:] *= 1e120
        path = tmp_path / "huge.csv"
        np.savetxt(path, table, delimiter=",", fmt="%.17g", header="time,status,u1,u2,u3",
                   comments="")
        rc, out, err = run_cli(capsys, ["screen", str(path), "--no-standardize", "--seed", "7",
                                        "--method", *method])
        assert (rc, out) == (3, "")
        assert err.startswith("survscreen: numerical degeneracy: ") and err.count("\n") == 1

    def test_other_package_errors_exit_1_in_one_line(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise survscreen.SurvScreenError("a worker process died")

        monkeypatch.setattr(survscreen.cli, "monte_carlo_rejection", fail)
        rc, out, err = run_cli(capsys, ["simulate", "--reps", "1", "--seed", "1"])
        assert (rc, out, err) == (1, "", "survscreen: error: a worker process died\n")

    @pytest.mark.parametrize("name,content,message", [
        ("body.csv", b"time,status,u1\n1.0,1,0.5\n2.0,0,\xff\n3.0,1,0.7\n", "cannot read {path}: "),
        ("header.csv", b"time,status,u\xff1\n1.0,1,0.5\n2.0,0,0.1\n3.0,1,0.7\n",
         "cannot read {path}: "),
        ("plain.gz", b"time,status,u1\n1.0,1,0.5\n2.0,0,0.1\n3.0,1,0.7\n", "cannot read {path}: "),
        ("truncated.gz", gzip.compress(
            b"time,status,u1\n" + b"".join(b"%d,1,0.%d\n" % (i, i % 10) for i in range(400)),
            mtime=0)[:200], "cannot read {path}: "),
        ("empty.csv", b"", "{path}: empty file\n"),
    ], ids=["body", "header", "plain-gz", "truncated-gz", "empty"])
    def test_unreadable_bytes_exit_2_naming_the_path(self, tmp_path, name, content, message):
        path = tmp_path / name
        path.write_bytes(content)
        done = subprocess.run([sys.executable, "-m", "survscreen.cli", "screen", str(path),
                               "--method", "bonferroni", "--seed", "1"],
                              env=src_env(), capture_output=True, text=True, timeout=300)
        assert done.returncode == 2
        assert message.format(path=path) in done.stderr
        assert "Traceback" not in done.stderr

    def test_a_reader_that_closes_stdout_early_gets_exit_1_without_a_traceback(self):
        # a report of 1,000 orderings outgrows the pipe's buffer, so a write
        # after the reader closed it fails
        argv = [sys.executable, "-m", "survscreen.cli"] + screen_args(**{"--orderings": "1000"})
        with subprocess.Popen(argv, env=src_env(), bufsize=0, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as done:
            assert done.stdout.read(1) == b"{"
            done.stdout.close()
            _, err = done.communicate(timeout=300)
        assert (done.returncode, err) == (1, b"")  # no traceback

    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, ["screen", "/nonexistent.csv", "--seed", "1"])
        assert rc == 2


class TestOptionValues:
    @pytest.mark.parametrize("argv,message", [
        *(([command, "--alpha", alpha], "--alpha must be a number in (0, 1)")
          for command in ("screen", "simulate") for alpha in ("0", "1", "-0.1", "1.5")),
        (["screen", "--qn", "abc"], "--qn must be an integer or 'half', got 'abc'"),
    ], ids=[f"{command}-alpha-{alpha}" for command in ("screen", "simulate")
            for alpha in ("0", "1", "-0.1", "1.5")] + ["screen-qn-abc"])
    def test_a_value_the_option_does_not_take_exits_2(self, capsys, argv, message):
        if argv[0] == "screen":
            argv = argv[:1] + [TOY] + argv[1:]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--seed", "1"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestSimulateCommand:
    def test_smoke_runs_emit_wellformed_csv(self, capsys):
        scenarios = [
            ["--model", "N", "--censoring", "light"],
            ["--model", "A1", "--censoring", "heavy"],
            ["--model", "A2", "--censoring", "none", "--p", "12"],
        ]
        for extra in scenarios:
            rc, out, _ = run_cli(
                capsys,
                ["simulate", "--n", "40", "--p", "12", "--reps", "5", "--seed", "5",
                 "--method", "stabilized_full"] + extra,
            )
            assert rc == 0
            header, row = out.strip().splitlines()
            assert header.startswith("model,error,censoring,n,p,method,reps")
            assert len(row.split(",")) == len(header.split(","))

    def test_threads_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(screen_args(**{"--threads": "2"}))
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv,code,message", [
        (["--method", "stabilized_full", "--n", "2", "--p", "2"], 2,
         "error: replicate 0 (seed 1) failed: the stabilized screen needs at least 3 observations"),
        (["--method", "oracle", "--n", "2", "--p", "2"], 3,
         "numerical degeneracy: replicate 0 (seed 1) failed"),
        (["--p", "0"], 2, "error: p must be >= 1"),
        (["--parallelism", "-2", "--n", "40", "--p", "3"], 2, "error: parallelism must be >= 1"),
        (["--method", "stabilized_multiR", "--orderings", "0", "--n", "40", "--p", "5"], 2,
         "error: orderings must be >= 1, got 0"),
        (["--method", "stabilized_multiR", "--orderings", "-5", "--n", "40", "--p", "5"], 2,
         "error: orderings must be >= 1, got -5"),
        (["--rho", "nan"], 2, "error: rho must be a number in [0, 1), got nan"),
    ])
    def test_failures_map_to_exit_codes(self, capsys, argv, code, message):
        rc, out, err = run_cli(capsys, ["simulate", "--reps", "1", "--seed", "1"] + argv)
        assert rc == code
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("method,orderings", [
        ("oracle", "5"), ("oracle", "0"), ("bonferroni", "3"), ("stabilized_full", "1"),
    ])
    def test_orderings_outside_multi_ordering_method_exits_2(self, capsys, method, orderings):
        # n=2 fails every replicate, so exit 2 with this message means none ran
        rc, out, err = run_cli(capsys, ["simulate", "--reps", "1", "--seed", "1", "--n", "2",
                                        "--method", method, "--orderings", orderings])
        assert rc == 2
        assert out == ""
        assert "error: --orderings is read only by --method stabilized_multiR" in err

    @pytest.mark.parametrize("method", ["oracle", "bonferroni", "stabilized_full"])
    def test_default_orderings_stays_accepted(self, capsys, method):
        rc, out, _ = run_cli(capsys, ["simulate", "--reps", "1", "--seed", "1", "--n", "60",
                                      "--p", "4", "--method", method, "--orderings", "10"])
        assert rc == 0
        assert out.splitlines()[1].split(",")[5] == method

    def test_unknown_model_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--model", "Q"])
        assert exc.value.code == 2


def test_bench_command_is_gone():
    # timing lives in the report's timing_ms and in perfbench
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--n", "60", "--p", "40"])
    assert exc.value.code == 2


def test_readme_lists_the_public_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    paragraph = re.search(r"^The public API is.*?(?=\n\n)", readme, re.S | re.M).group(0)
    assert set(re.findall(r"`(\w+)`", paragraph)) == set(survscreen.__all__)


def test_import_loads_no_scipy():
    # the package and its CLI run on numpy alone, and the process pool that
    # only parallel Monte-Carlo studies use is loaded when one starts
    script = """
import sys
import survscreen, survscreen.cli
print(*sorted(name for name in sys.modules
              if name.split(".")[0] == "scipy" or name == "concurrent.futures.process"))
"""
    assert run_python(["-c", script], blas_threads=1).split() == []
