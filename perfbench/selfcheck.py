"""Self-check of the benchmark at smoke size (a few seconds per workload).

Run from the root of a checkout:  python3 perfbench/selfcheck.py

Checks that
* every run prints each metric named in BENCHMARK.json with its unit, and a
  last line with exactly the result keys;
* every workload passes its correctness checks, and a perturbed reference
  is caught as a failed operation;
* each workload's intended layer shows nonzero calls, and computed work
  counters repeat exactly between two traced runs;
* the tracer reports a missing function as absent instead of raising;
* the benchmark does not use the ``survscreen bench`` command;
* without the package sources, run.py exits nonzero and prints no result.
Exits 1 and lists the failures if any check fails.
"""

import contextlib
import copy
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SMOKE = {
    "screen-csv": {"model": "A1", "censoring": "light", "n": 80, "p": 30, "orderings": 2},
    "screen-wide": {"model": "N", "censoring": "heavy", "n": 80, "p": 300, "orderings": 2},
    "mc-null": {"model": "N", "censoring": "light", "n": 80, "p": 10, "orderings": 2, "reps": 3},
    "screen-bonferroni": {"model": "A1", "censoring": "heavy", "n": 80, "p": 40},
}
SEED = 3

# metric that must be nonzero in the traced run of each workload
INTENDED = {
    "screen-csv": ("dataset.read_csv_s", "stabilized.select_calls", "cli.report_s"),
    "screen-wide": ("stabilized.select_calls", "stabilized.cache_entry_calls"),
    "mc-null": ("censoring.km_fits", "stabilized.select_calls", "simulate.generate_s"),
    "screen-bonferroni": ("onestep.one_step_calls", "residual_life.fit_calls"),
}

failures = []


def expect(ok, what):
    if not ok:
        failures.append(what)
    print(("ok   " if ok else "FAIL ") + what)


def bench(workload, trace, reference=None):
    """One in-process benchmark run at smoke size; returns (lines, result)."""
    workloads.WORKLOADS[workload]["sizes"] = SMOKE[workload]
    saved = run.REFERENCE_PATH
    tmp = os.path.join(".perfbench", "selfcheck-reference.json")
    if reference is not None:
        os.makedirs(".perfbench", exist_ok=True)
        with open(tmp, "w") as fh:
            json.dump(reference, fh)
        run.REFERENCE_PATH = tmp
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = run.main(["--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
                             "--trace", str(trace)])
    finally:
        run.REFERENCE_PATH = saved
    lines = buf.getvalue().strip().splitlines()
    expect(code == 0, f"{workload} trace={trace}: exit code 0 (got {code})")
    return lines, json.loads(lines[-1])


def check_output(workload, trace, lines, result, units):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace={trace}: result has exactly the four keys")
    expect(set(result["metrics"]) == set(units),
           f"{workload} trace={trace}: every named metric is in the result")
    printed = {line.split()[0]: line.split()[-1] for line in lines[:-1]
               if not line.startswith("#")}
    expect(all(printed.get(name) == unit and result["metrics"][name]["unit"] == unit
               for name, unit in units.items()),
           f"{workload} trace={trace}: every metric printed with its unit")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: outputs pass their checks")


def main():
    e2e_units, layer_units = run._benchmark_spec()
    for workload in workloads.WORKLOADS:
        lines, result = bench(workload, 0)
        check_output(workload, 0, lines, result, e2e_units)
        record_path = os.path.join(".perfbench", "results", f"{workload}-seed{SEED}-trace0.json")
        with open(record_path) as fh:
            summary = json.load(fh)["ops"][0]["summary"]

        traced = []
        for _ in range(2):
            lines, result = bench(workload, 1)
            check_output(workload, 1, lines, result, layer_units)
            traced.append(result["metrics"])
        for name in INTENDED[workload]:
            expect(traced[0][name]["value"] > 0, f"{workload}: {name} is nonzero")
        if workload == "screen-bonferroni":
            expect(traced[0]["residual_life.fit_calls"]["value"] >= SMOKE[workload]["p"],
                   "screen-bonferroni: residual_life.fit_calls >= p")
        counts = [n for n, u in layer_units.items() if u in ("count", "GB")
                  and n != "trace.top_layer_matches"]
        expect(all(traced[0][n]["value"] == traced[1][n]["value"] for n in counts),
               f"{workload}: computed counters repeat exactly between runs")

        ref = {"rel_tol": workloads.REL_TOL,
               "workloads": {workload: {"sizes": SMOKE[workload], "seeds": {str(SEED): summary}}}}
        _, result = bench(workload, 0, reference=ref)
        expect(result["correct"], f"{workload}: passes against its own recorded outputs")
        perturbed = list(perturbations(summary))
        for what, bad in perturbed:
            expect(bool(workloads.compare(summary, bad)),
                   f"{workload}: perturbed reference ({what}) is caught")
        bad_ref = copy.deepcopy(ref)
        bad_ref["workloads"][workload]["seeds"][str(SEED)] = next(
            (bad for what, bad in perturbed if isinstance(summary[what], float)), perturbed[0][1])
        _, result = bench(workload, 0, reference=bad_ref)
        expect(not result["correct"] and result["failed"] == result["attempted"],
               f"{workload}: a reference mismatch counts every operation as failed")

    tracer = Tracer(targets=("stabilized:no_such_function", "censoring:fit_censoring_km"))
    tracer.install()
    tracer.uninstall()
    expect(tracer.export()["absent"] == ["stabilized:no_such_function"],
           "tracer reports a missing name as absent")

    sources = [f for f in os.listdir(HERE) if f.endswith(".py") and f != "selfcheck.py"]
    uses_bench = [f for f in sources
                  if any(s in open(os.path.join(HERE, f)).read() for s in ("cmd_bench", '"bench"'))]
    expect(not uses_bench, f"no use of the survscreen bench command ({uses_bench})")

    bare = os.path.join(".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "screen-csv",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without sources: nonzero exit and no result printed")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


def perturbations(summary):
    """(description, perturbed copy) pairs that the reference check must catch."""
    for key, value in summary.items():
        bad = copy.deepcopy(summary)
        if isinstance(value, bool):
            bad[key] = not value
        elif isinstance(value, int):
            bad[key] = value + 1
        elif isinstance(value, float):
            bad[key] = value * (1.0 + 1e-8) if value else 1e-300
        elif isinstance(value, list) and value and isinstance(value[0], float):
            bad[key] = [value[0] * (1.0 + 1e-8) if value[0] else 1e-300] + value[1:]
        elif isinstance(value, list) and value and isinstance(value[0], str):
            bad[key] = [value[0] + "x"] + value[1:]
        else:
            continue
        yield key, bad


if __name__ == "__main__":
    sys.exit(main())
