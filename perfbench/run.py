"""survscreen benchmark: one command for every workload, checked and traced.

Run from the root of a checkout (the directory holding ``src/survscreen``):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are listed in BENCHMARK.json and described in
workloads.py.  A run prepares its inputs from the seed and starts the
measured child process (child.py).  With ``--trace 0`` two set-up-only
children run before it, and ``setup_s`` is the median of the three set-up
times (child start to the first timed call).  The measured child repeats the
timed operation for ``--seconds``; ``wall_s`` is the mean time per operation
within the run and ``peak_rss_mb`` is the child's peak RSS from ``wait4``.
Every operation's output is checked: against the recorded reference outputs
(reference.json) for the seeds recorded there, otherwise against structural
invariants, and always against the run's first operation.  A failed check,
an exception or a bad exit counts in ``failed``.

With ``--trace 1`` the child alternates untraced and traced operations and
the per-layer metrics come from tracer.py's spans; ``machine.gemv_gbps`` is
measured here afterwards.  Human-readable lines precede the result, which is
the last line of standard output.  A full record with the machine
fingerprint is written to ``.perfbench/results/``.
"""

import argparse
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracer import LAYERS, ROOT  # noqa: E402

SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0
REFERENCE_PATH = os.path.join(HERE, "reference.json")
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SURVSCREEN_THREADS")


def _benchmark_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# -- statistics ---------------------------------------------------------------

def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; the maximum (percentile 100) when there are fewer than 11."""
    xs = sorted(values)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


# -- machine ------------------------------------------------------------------

def _l3_bytes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for idx in sorted(os.listdir(base)):
            with open(os.path.join(base, idx, "level")) as fh:
                if fh.read().strip() != "3":
                    continue
            with open(os.path.join(base, idx, "size")) as fh:
                size = fh.read().strip()
            units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}
            return int(size[:-1]) * units[size[-1]] if size[-1] in units else int(size)
    except (OSError, ValueError):
        pass
    return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads():
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return getter()
    return None


def fingerprint(child_env):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l3_bytes": _l3_bytes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "child_thread_env": {k: child_env.get(k) for k in THREAD_ENV},
    }


def gemv_gbps(l3_bytes):
    """Bandwidth of a gemv over a column-major n x m array of at least 4x L3,
    the same access pattern as selection's U[:j].T @ w."""
    import numpy as np

    n = 500
    cols = -(-4 * (l3_bytes or 32 * 2 ** 20) // (8 * n))
    a = np.ones((n, cols), order="F")
    w = np.ones(n)
    times = []
    for _ in range(7):
        start = time.perf_counter()
        a.T @ w
        times.append(time.perf_counter() - start)
    return a.nbytes / 1e9 / statistics.median(times), a.nbytes


# -- child processes ------------------------------------------------------------

def _spawn(args, workdir, env, out, deadline, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "child.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir,
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out]
    if setup_only:
        cmd.append("--setup-only")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd + ["--started", repr(started)], env=env,
                            stdout=subprocess.DEVNULL)
    status = rusage = None
    try:
        while status is None:
            pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                status, rusage = st, ru
            elif time.monotonic() > deadline:
                proc.kill()
                _, status, rusage = os.wait4(proc.pid, 0)
                print(f"perfbench: child killed at the {RUN_DEADLINE_S:.0f} s deadline",
                      file=sys.stderr)
            else:
                time.sleep(0.01)
    finally:
        if status is None:
            proc.kill()
            os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if proc.returncode == 0 and os.path.exists(out):
        with open(out) as fh:
            result = json.load(fh)
    return proc.returncode, rusage.ru_maxrss / 1024.0, result


# -- checks -----------------------------------------------------------------------

def load_reference(workload, seed, sizes):
    try:
        with open(REFERENCE_PATH) as fh:
            ref = json.load(fh)["workloads"].get(workload)
    except (OSError, KeyError):
        return None
    if not ref or ref["sizes"] != sizes:
        return None
    return ref["seeds"].get(str(seed))


def check_ops(workload, sizes, ops, reference):
    """Per-op error lists: exceptions, reference or invariant mismatches, and
    disagreement with the run's first successful operation."""
    first = next((op["summary"] for op in ops if op["summary"] is not None), None)
    verdicts = []
    for op in ops:
        if op["error"] is not None:
            verdicts.append([op["error"].strip().splitlines()[-1]])
            continue
        summary = op["summary"]
        if reference is not None:
            errors = workloads.compare(summary, reference)
        else:
            errors = workloads.invariants(workload, sizes, summary)
        errors += [f"differs from first op: {e}" for e in workloads.compare(summary, first)]
        if op["rep_ms"] is not None and not all(v > 0.0 for v in op["rep_ms"]):
            errors.append("non-positive replicate runtime")
        verdicts.append(errors)
    return verdicts


# -- metrics --------------------------------------------------------------------------

def end_to_end(ops, setups, peak_rss_mb):
    timed = [op["wall_s"] for op in ops if op["error"] is None] or [op["wall_s"] for op in ops]
    metrics = {
        "wall_s": statistics.fmean(timed),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
    }
    return metrics, {"ops": len(ops), "op_wall_s": timed}


def per_layer(workload, ops, trace, gemv):
    traced = [op for op in ops if op["traced"] and op["error"] is None]
    untraced = [op for op in ops if not op["traced"] and op["error"] is None]
    t = max(1, len(traced))
    stats, counters = trace["stats"], trace["counters"]

    def total(name):
        return stats[name]["total_s"] if name in stats else 0.0

    def self_s(name):
        return stats[name]["self_s"] if name in stats else 0.0

    def calls(name):
        return per_op(stats[name]["calls"] if name in stats else 0)

    def counter(name):
        return per_op(counters.get(name) or 0)

    def per_op(count):
        # integer division keeps computed counts exact when every op repeats them
        return count // t if count % t == 0 else count / t

    select = "stabilized:_select_from_prefix"
    samples = [1000.0 * s for s in (stats.get(select, {}).get("samples_s") or [])]
    select_tail = tail(samples)[0] if samples else 0.0
    select_gb = counter("select_bytes") / 1e9
    select_self = self_s(select) / t
    entry = "stabilized:FullSampleCache.entry"
    layer_self = {layer: sum(s["self_s"] for name, s in stats.items()
                             if name.split(":")[0] == layer) for layer in LAYERS}
    top = max(LAYERS, key=lambda layer: layer_self[layer])
    traced_wall = statistics.median([op["wall_s"] for op in traced]) if traced else 0.0
    untraced_wall = statistics.median([op["wall_s"] for op in untraced]) if untraced else 0.0
    # untraced operations only, so that the wrappers' overhead is not counted
    reps = [v for op in untraced for v in (op["rep_ms"] or [])]
    rep_tail, rep_pct = tail(reps) if reps else (0.0, None)

    m = {
        "dataset.read_csv_s": total("dataset:read_csv") / t,
        "dataset.ingest_s": total("dataset:ingest") / t,
        "dataset.csv_mb_per_s": (counter("csv_bytes") / 1e6 / (total("dataset:read_csv") / t)
                                 if total("dataset:read_csv") > 0 else 0.0),
        "censoring.km_fits": calls("censoring:fit_censoring_km"),
        "censoring.km_s": total("censoring:fit_censoring_km") / t,
        "censoring.weighted_response_s": (total("censoring:survival_at")
                                          + total("censoring:_weighted_response")) / t,
        "stabilized.select_calls": calls(select),
        "stabilized.select_self_s": select_self,
        "stabilized.select_ms_p50": statistics.median(samples) if samples else 0.0,
        "stabilized.select_ms_tail": select_tail,
        "stabilized.select_gb_computed": select_gb,
        "stabilized.select_gbps": select_gb / select_self if select_self > 0 else 0.0,
        "stabilized.estimate_self_s": self_s("stabilized:stabilized_estimate") / t,
        "stabilized.cache_entry_calls": calls(entry),
        "stabilized.cache_distinct_k": counter("cache_distinct_k"),
        "stabilized.cache_reuse_ratio": (calls(entry) / counter("cache_distinct_k")
                                         if counter("cache_distinct_k") else 0.0),
        "stabilized.cache_entry_s": total(entry) / t,
        "onestep.one_step_calls": calls("onestep:one_step"),
        "onestep.one_step_s": total("onestep:one_step") / t,
        "onestep.make_bundle_s": total("onestep:make_bundle") / t,
        "onestep.influence_s": total("onestep:influence_values") / t,
        "onestep.martingale_s": total("onestep:martingale_values") / t,
        "residual_life.fit_calls": calls("residual_life:fit_residual_life_arrays"),
        "residual_life.fit_s": total("residual_life:fit_residual_life_arrays") / t,
        "simulate.generate_s": total("simulate:generate_scenario") / t,
        "simulate.rep_ms_p50": statistics.median(reps) if reps else 0.0,
        "simulate.rep_ms_tail": rep_tail,
        "cli.report_s": self_s("cli:cmd_screen") / t,
        "machine.gemv_gbps": gemv,
        "trace.overhead_frac": (traced_wall / untraced_wall - 1.0) if untraced_wall else 0.0,
        "trace.unattributed_s": self_s(ROOT) / t,
        "trace.top_layer_matches": 1 if top in workloads.WORKLOADS[workload]["expect_top"] else 0,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer] / t
    notes = {"top_layer": top, "expected_top": list(workloads.WORKLOADS[workload]["expect_top"]),
             "traced_ops": len(traced), "untraced_ops": len(untraced),
             "rep_samples": len(reps), "rep_ms_tail_percentile": rep_pct,
             "absent": trace["absent"]}
    return m, notes


# -- run ---------------------------------------------------------------------------

def run(args):
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "survscreen", "__init__.py")):
        print(f"perfbench: no survscreen sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    deadline = time.monotonic() + RUN_DEADLINE_S
    e2e_units, layer_units = _benchmark_spec()
    sizes = workloads.WORKLOADS[args.workload]["sizes"]
    base = os.path.join(root, ".perfbench")
    workdir = os.path.join(base, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    env = dict(os.environ, SURVSCREEN_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        with open(os.path.join(workdir, "sizes.json"), "w") as fh:
            json.dump(sizes, fh)
        prep_start = time.perf_counter()
        workloads.prepare(args.workload, args.seed, sizes, workdir)
        prep_s = time.perf_counter() - prep_start

        # setup_s is reported with --trace 0 only, so only then is set-up repeated
        repeats = 1 if args.trace else SETUP_REPEATS
        setups = []
        for i in range(repeats):
            last = i == repeats - 1
            code, rss_mb, result = _spawn(args, workdir, env, os.path.join(workdir, f"child{i}.json"),
                                          deadline, setup_only=not last)
            if result is None:
                print(f"perfbench: child exited with code {code} before reporting",
                      file=sys.stderr)
                return 1
            setups.append(result["setup_s"])
        ops = result["ops"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reference = load_reference(args.workload, args.seed, sizes)
    verdicts = check_ops(args.workload, sizes, ops, reference)
    failed = sum(1 for v in verdicts if v)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "sizes": sizes, "prepare_s": prep_s,
        "checked_against": "reference" if reference is not None else "invariants",
        "failed_frac": failed / len(ops), "op_errors": [v for v in verdicts if v],
        "ops": [{k: op[k] for k in ("traced", "wall_s", "summary", "error")} for op in ops],
        "setups_s": setups,
        "fingerprint": fingerprint(env),
    }
    if args.trace:
        gemv, gemv_bytes = gemv_gbps(record["fingerprint"]["l3_bytes"])
        metrics, notes = per_layer(args.workload, ops, result["trace"], gemv)
        notes["gemv_array_bytes"] = gemv_bytes
        record["trace_tree"] = result["trace"]["edges"]
        units = layer_units
    else:
        metrics, notes = end_to_end(ops, setups, rss_mb)
        units = e2e_units
    record["notes"] = notes
    out = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record["result"] = out

    results_dir = os.path.join(base, "results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)

    print(f"# {args.workload} seed={args.seed} ops={len(ops)} "
          f"checked against {record['checked_against']}; failed_frac={record['failed_frac']:g}")
    for errors in record["op_errors"]:
        print(f"# failed op: {'; '.join(errors)[:300]}")
    for key, value in notes.items():
        print(f"# {key}: {value}")
    for name, entry in out["metrics"].items():
        print(f"{name} {entry['value']!r} {entry['unit']}")
    print(json.dumps(out))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
