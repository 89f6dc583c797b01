"""The benchmark's workloads: how each one prepares inputs, sets up, runs and is checked.

Every workload calls survscreen only through public entry points.  Inputs
are generated by ``survscreen.simulate`` from the workload seed while
run.py prepares the run; the timed child process receives only the written
files (a CSV, or a ``time,status,u1..up`` table as ``.npy``).

Why these four (the layers they load differently):

* screen-csv: the README's headline path, CSV bytes to JSON report through
  ``survscreen.cli.main``; parsing and in-cache selection both matter, and
  under A1 a few correlated predictors win most steps, so the full-sample
  nuisance cache is reused heavily.
* screen-wide: selection on a predictor matrix about twice the L3 size, so
  each prefix gemv streams from memory; under N about a dozen distinct
  predictors are selected per ordering, so cache reuse is low; two
  orderings, so a change that reads U once for all orderings shows.
* mc-null: the acceptance-criterion-8 shape (N/light, p=100, R=10).  At
  p=100 a step costs numpy call overhead and a Kaplan-Meier refit, the
  opposite regime to screen-wide.
* screen-bonferroni: per-predictor one-step tests, the only workload where
  the one-step kernel (onestep plus residual_life) does most of the work.
"""

import io
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np

ALPHA = 0.05

WORKLOADS = {
    "screen-csv": {
        "sizes": {"model": "A1", "censoring": "light", "n": 500, "p": 2000, "orderings": 10},
        "expect_top": ("dataset", "stabilized"),
    },
    "screen-wide": {
        "sizes": {"model": "N", "censoring": "heavy", "n": 500, "p": 50000, "orderings": 2},
        "expect_top": ("stabilized",),
    },
    "mc-null": {
        "sizes": {"model": "N", "censoring": "light", "n": 500, "p": 100, "orderings": 10,
                  "reps": 10},
        "expect_top": ("censoring", "stabilized"),
    },
    "screen-bonferroni": {
        "sizes": {"model": "A1", "censoring": "heavy", "n": 500, "p": 4000},
        "expect_top": ("onestep", "residual_life"),
    },
}

CSV_NAME = "input.csv"
TABLE_NAME = "table.npy"


def _spec(sizes, seed):
    from survscreen import ScenarioSpec

    return ScenarioSpec(model=sizes["model"], censoring=sizes["censoring"],
                        n=sizes["n"], p=sizes["p"], seed=seed)


def replicate_seeds(seed, reps):
    """Scenario seeds of the mc-null replicates, derived from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(reps, dtype=np.uint64)]


# -- preparation (run.py's process) ---------------------------------------------

def prepare(name, seed, sizes, workdir):
    """Write the workload's input files into ``workdir``."""
    if name == "mc-null":
        return
    from survscreen import generate_scenario

    data, _ = generate_scenario(_spec(sizes, seed))
    table = np.column_stack((data.x, data.delta, data.predictors))
    del data
    if name == "screen-csv":
        header = "time,status," + ",".join(f"u{k + 1}" for k in range(sizes["p"]))
        np.savetxt(os.path.join(workdir, CSV_NAME), table, delimiter=",",
                   fmt="%.17g", header=header, comments="")
    else:
        np.save(os.path.join(workdir, TABLE_NAME), table)


# -- child process --------------------------------------------------------------

def setup(name, seed, sizes, workdir):
    """Imports and input loading; everything here is counted in setup_s."""
    import survscreen
    import survscreen.cli  # noqa: F401  (so that no import lands in a timed call)

    if name == "screen-csv":
        return {"path": os.path.join(workdir, CSV_NAME)}
    if name == "mc-null":
        return {"specs": [_spec(sizes, s) for s in replicate_seeds(seed, sizes["reps"])]}
    table = np.load(os.path.join(workdir, TABLE_NAME))
    return {"data": survscreen.ingest(table)}


def run_op(name, seed, sizes, state):
    """The timed operation.  Public calls only; returns its raw output."""
    import survscreen
    import survscreen.cli

    if name == "screen-csv":
        out = io.StringIO()
        with redirect_stdout(out):
            code = survscreen.cli.main(["screen", state["path"], "--seed", str(seed),
                                        "--orderings", str(sizes["orderings"])])
        if code != 0:
            raise RuntimeError(f"survscreen screen exited with code {code}")
        return out.getvalue()
    if name == "screen-wide":
        return survscreen.multi_ordering_test(state["data"], orderings=sizes["orderings"],
                                              seed=seed)
    if name == "mc-null":
        return [
            survscreen.monte_carlo_rejection(spec, "stabilized_multiR", 1, alpha=ALPHA,
                                             parallelism=1, orderings=sizes["orderings"])
            for spec in state["specs"]
        ]
    return survscreen.bonferroni_test(state["data"])


def summarize(name, state, out):
    """Comparable outputs of one operation (floats kept at full precision)."""
    if name == "screen-csv":
        rep = json.loads(out)
        return {
            "selected_index": rep["selected"]["index"],
            "reject": rep["decision"]["reject"],
            "ordering_names": [o["selected_name"] for o in rep["orderings"]],
            "estimate": rep["estimate"],
            "ci": rep["ci"],
            "p_value": rep["p_value"],
            "adjusted_p_value": rep["adjusted_p_value"],
            "ordering_p": [o["p_value"] for o in rep["orderings"]],
        }
    if name == "screen-wide":
        names = state["data"].predictor_names
        best = out.best
        return {
            "selected_index": best.modal_k() + 1,
            "reject": bool(out.reject),
            "ordering_names": [names[r.modal_k()] for r in out.results],
            "estimate": best.s_star,
            "ci": [best.ci_low, best.ci_high],
            "p_value": out.min_p,
            "adjusted_p_value": out.adjusted_p,
            "ordering_p": list(out.p_values),
        }
    if name == "mc-null":
        # Under model N no replicate has a coverage target, so the coverage
        # counts are 0 by construction; the rejection count is the real check.
        covered = [r.coverage for r in out if r.coverage is not None]
        return {
            "rejections": sum(r.rejections for r in out),
            "covered": int(round(sum(covered))),
            "coverage_eligible": len(covered),
        }
    return {
        "selected_index": int(out.selected) + 1,
        "reject": bool(out.reject),
        "min_p": float(out.min_p),
        "adjusted_p_value": float(out.adjusted_p),
    }


def rep_times_ms(name, out):
    """Per-replicate runtimes for mc-null, as the package measures them
    (method only, data generation excluded); None for the screens."""
    if name != "mc-null":
        return None
    return [r.mean_runtime_ms for r in out]


# -- correctness ------------------------------------------------------------------

REL_TOL = 1e-9


def compare(summary, reference, path=""):
    """Mismatches between two summaries: floats within REL_TOL, the rest exact."""
    if isinstance(reference, float) and isinstance(summary, (int, float)) \
            and not isinstance(summary, bool):
        if not math.isclose(summary, reference, rel_tol=REL_TOL, abs_tol=0.0):
            return [f"{path}: {summary!r} != reference {reference!r}"]
        return []
    if isinstance(reference, dict) and isinstance(summary, dict):
        errors = []
        for key in sorted(set(reference) | set(summary)):
            if key not in summary or key not in reference:
                errors.append(f"{path}/{key}: missing")
            else:
                errors.extend(compare(summary[key], reference[key], f"{path}/{key}"))
        return errors
    if isinstance(reference, list) and isinstance(summary, list):
        if len(summary) != len(reference):
            return [f"{path}: length {len(summary)} != reference {len(reference)}"]
        errors = []
        for i, (s, r) in enumerate(zip(summary, reference)):
            errors.extend(compare(s, r, f"{path}[{i}]"))
        return errors
    if summary != reference or type(summary) is not type(reference):
        return [f"{path}: {summary!r} != reference {reference!r}"]
    return []


def invariants(name, sizes, summary):
    """Structural checks that hold for any seed."""
    errors = []

    def need(ok, what):
        if not ok:
            errors.append(what)

    if name == "mc-null":
        reps = sizes["reps"]
        need(0 <= summary["rejections"] <= reps, "rejections out of range")
        need(0 <= summary["covered"] <= summary["coverage_eligible"] <= reps,
             "coverage count out of range")
        return errors

    floats = [summary["adjusted_p_value"]]
    floats += [summary["min_p"]] if name == "screen-bonferroni" else (
        [summary["estimate"], summary["p_value"]] + summary["ci"] + summary["ordering_p"])
    need(all(isinstance(v, float) and math.isfinite(v) for v in floats), "non-finite value")
    if errors:
        return errors
    need(1 <= summary["selected_index"] <= sizes["p"], "selected index out of range")
    if name == "screen-bonferroni":
        min_p, tests = summary["min_p"], sizes["p"]
    else:
        min_p, tests = summary["p_value"], sizes["orderings"]
        need(len(summary["ordering_names"]) == tests, "wrong number of orderings")
        need(math.isclose(min_p, min(summary["ordering_p"]), rel_tol=REL_TOL, abs_tol=0.0),
             "p_value is not the minimum over orderings")
        low, high = summary["ci"]
        need(low <= summary["estimate"] <= high, "CI does not contain the estimate")
    need(0.0 <= min_p <= 1.0, "p-value outside [0, 1]")
    need(math.isclose(summary["adjusted_p_value"], min(1.0, tests * min_p),
                      rel_tol=REL_TOL, abs_tol=0.0), "adjusted p != min(1, R * min_p)")
    need(summary["reject"] == (min_p < ALPHA / tests), "decision disagrees with min p")
    return errors
