"""Write BENCH_ingest.json: the one-copy ingest, parent commit against change.

Usage, with two checkouts (the parent commit and the change) side by side:

    python3 scripts/bench_ingest.py --parent PARENT_DIR --change CHANGE_DIR \
        --out BENCH_ingest.json

For every benchmark workload it runs ``perfbench/run.py --trace 0`` in both
checkouts for PAIRS seeds, pair by pair, alternating which side runs first.
It then times ``read_csv``, ``ingest`` and ``generate_scenario`` of each
checkout in LAYER_REPEATS fresh processes and records each call's wall time
and the rise of the process's peak RSS (``ru_maxrss``) across it.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

WORKLOADS = ("screen-wide", "screen-csv", "screen-bonferroni", "mc-null")
PAIRS = 10  # alternating parent/change pairs per workload
MIN_WINS = 9  # pairs the change must win for the claim
LAYER_REPEATS = 3
SECONDS = 15.0  # the benchmark's run length
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Run in a fresh process with the checkout's src first on sys.path; argv:
# src, layer, input path.  Prints {"s": wall seconds, "rise_mb", "peak_mb"}.
LAYER = r"""
import json, resource, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from survscreen import ScenarioSpec, generate_scenario, ingest, read_csv
from survscreen.simulate import calibrate_censoring_rate

def peak_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

layer, path = sys.argv[2], sys.argv[3]
if layer == "read_csv":
    call = lambda: read_csv(path)
elif layer == "ingest":
    table = np.load(path)
    call = lambda: ingest(table)
else:
    calibrate_censoring_rate("N", "independent", 0.30)
    call = lambda: generate_scenario(ScenarioSpec(model="N", censoring="heavy", n=500, p=50000, seed=1))
before = peak_mb()
start = time.perf_counter()
call()
wall = time.perf_counter() - start
print(json.dumps({"s": wall, "rise_mb": peak_mb() - before, "peak_mb": peak_mb()}))
"""

INPUTS = r"""
import os, sys
import numpy as np
rng = np.random.default_rng(20261018)
def table(n, p):
    return np.column_stack((rng.exponential(1.0, n), rng.random(n) < 0.8, rng.standard_normal((n, p))))
header = "time,status," + ",".join(f"u{k + 1}" for k in range(2000))
np.savetxt(os.path.join(sys.argv[1], "layer.csv"), table(500, 2000), delimiter=",", fmt="%.17g",
           header=header, comments="")
np.save(os.path.join(sys.argv[1], "layer.npy"), table(500, 50000))
"""

LAYER_INPUTS = {
    "read_csv": "the screen-csv shape: a 500 x 2002 CSV (time, status, 2000 predictors, %.17g), 8 MB matrix",
    "ingest": "the screen-wide shape: a 500 x 50002 float64 table loaded from .npy, 200 MB matrix",
    "generate_scenario": "the screen-wide scenario: N/heavy, n=500, p=50000, seed 1, 200 MB matrix",
}


def quartiles(values):
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "runs": values}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def perfbench(root, workload, seed):
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                          cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"failed": result["failed"], "attempted": result["attempted"],
            **{k: v["value"] for k, v in result["metrics"].items()}}


def layer(root, name, path):
    done = subprocess.run([sys.executable, "-c", LAYER, os.path.join(root, "src"), name, path],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def write_inputs(workdir):
    """Input files of the layer timings, written by a child process so that
    this process's RSS, which its children inherit, stays small."""
    subprocess.run([sys.executable, "-c", INPUTS, workdir], check=True)
    return {"read_csv": os.path.join(workdir, "layer.csv"),
            "ingest": os.path.join(workdir, "layer.npy"), "generate_scenario": "-"}


def fingerprint():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}

    runs = {w: {"parent": [], "change": []} for w in WORKLOADS}
    for workload in WORKLOADS:
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = perfbench(roots[side], workload, i + 1)
                runs[workload][side].append(run)
                print(workload, i + 1, side, run, file=sys.stderr, flush=True)

    end_to_end = {}
    for workload, sides in runs.items():
        row = {"seeds": list(range(1, len(sides["parent"]) + 1)),
               "failed": {s: sum(r["failed"] for r in sides[s]) for s in sides}}
        for metric in ("wall_s", "peak_rss_mb", "setup_s"):
            row[metric] = {s: quartiles([r[metric] for r in sides[s]]) for s in sides}
            pairs = list(zip(row[metric]["parent"]["runs"], row[metric]["change"]["runs"]))
            row[metric]["change_lower_in"] = f"{sum(c < p for p, c in pairs)} of {len(pairs)} pairs"
        end_to_end[workload] = row

    with tempfile.TemporaryDirectory() as workdir:
        inputs = write_inputs(workdir)
        layers = {}
        for name, path in inputs.items():
            samples = {"parent": [], "change": []}
            for i in range(LAYER_REPEATS):
                for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                    samples[side].append(layer(roots[side], name, path))
            layers[name] = {"input": LAYER_INPUTS[name]}
            for side, rows in samples.items():
                layers[name][side] = {k: statistics.median(r[k] for r in rows)
                                      for k in ("s", "rise_mb", "peak_mb")}

    wide = end_to_end["screen-wide"]["peak_rss_mb"]
    parent_iqr = wide["parent"]["q3"] - wide["parent"]["q1"]
    wins = sum(c < p for p, c in zip(wide["parent"]["runs"], wide["change"]["runs"]))
    record = {
        "topic": "ingest",
        "how": {
            "commands": [f"python3 perfbench/run.py --workload W --seed S --seconds {SECONDS:g} --trace 0"],
            "pairing": "seed i ran on both checkouts back to back; odd seeds parent first, even seeds change first",
            "layers": f"median of {LAYER_REPEATS} fresh processes per layer and side; "
                      "rise_mb is the growth of ru_maxrss across the one call",
        },
        "claim": {
            "metric": "peak_rss_mb", "workload": "screen-wide",
            "rule": f"change lower in at least {MIN_WINS} of {PAIRS} pairs, and the median gap "
                    "larger than the parent's interquartile range",
            "wins": f"{wins} of {PAIRS}",
            "median_gap_mb": wide["parent"]["median"] - wide["change"]["median"],
            "parent_iqr_mb": parent_iqr,
            "met": wins >= MIN_WINS and wide["parent"]["median"] - wide["change"]["median"] > parent_iqr,
        },
        "machine": fingerprint(),
        "end_to_end": end_to_end,
        "layers": layers,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
