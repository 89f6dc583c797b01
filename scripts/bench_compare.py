"""Compare the benchmark's end-to-end metrics between two checkouts.

Usage, with two checkouts (the parent commit and the change) side by side:

    python3 scripts/bench_compare.py --parent PARENT_DIR --change CHANGE_DIR \
        --out BENCH_<topic>.json

The workloads, the run length and the end-to-end metrics with their
direction come from the change's BENCHMARK.json.  For every workload it runs
``perfbench/run.py --trace 0`` in both checkouts for PAIRS seeds, pair by
pair, alternating which side runs first.  For every (end-to-end metric,
workload) pair it records each side's quartiles and applies the win rule:
the change is better in at least MIN_WINS of the pairs, ties counting for
neither, and the gap between the medians is larger than the parent's
interquartile range.  It also gives a no-regression verdict against the
metric's relative ``bound`` in BENCHMARK.json: ``unresolved`` when the
parent's interquartile range is more than the bound times its median, unless
every change run beats every parent run; otherwise ``regressed`` when the
change's median is worse than the parent's by more than the bound times the
parent's median, and ``holds`` when it is not.  The machine fingerprint (cores, CPU, L3, BLAS and its
pool size, library versions, thread variables) is the one perfbench wrote
for the change's last run, under its ``.perfbench/results/``.  Each run also
records the host's load read from /proc just before and after it: the 1-,
5- and 15-minute load averages and the CPU time stolen by the hypervisor, so
that a record shows which pairs ran on a busy host.

A run that exits non-zero does not stop the comparison: its exit code and
the last line of its standard error are recorded under ``crashed``, it
counts as one failure in its side's ``failed``, and its pair is one the
change does not win.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10  # alternating parent/change pairs per workload
MIN_WINS = 9  # pairs the change must win


def quartiles(values):
    """Quartiles of the runs that gave a value (None: a crashed run)."""
    ran = [v for v in values if v is not None]
    if len(ran) < 2:
        med = ran[0] if ran else None
        return {"median": med, "q1": med, "q3": med, "runs": values}
    q1, med, q3 = statistics.quantiles(ran, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def host_load():
    """The load averages and the cumulative steal time in seconds (all CPUs),
    or None where /proc does not give them."""
    try:
        with open("/proc/loadavg") as fh:
            loadavg = [float(v) for v in fh.read().split()[:3]]
        with open("/proc/stat") as fh:
            cpu = fh.readline().split()  # cpu user nice system idle iowait irq softirq steal ...
        steal = int(cpu[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None
    return {"loadavg": loadavg, "steal_s": steal}


def perfbench(root, workload, seed, seconds):
    before = host_load()
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    host = {"before": before, "after": host_load()}
    if done.returncode != 0:
        stderr = done.stderr.strip().splitlines()
        return {"failed": 1, "host": host, "exit_code": done.returncode,
                "stderr": stderr[-1] if stderr else ""}
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {"failed": result["failed"], "attempted": result["attempted"], "host": host,
            **{k: v["value"] for k, v in result["metrics"].items()}}


def compare(parent, change, better, bound):
    """Both sides' quartiles, the win rule and the no-regression verdict for
    one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # positive gap: the change is better
    wins = sum(p is not None and c is not None and sign * (p - c) > 0
               for p, c in zip(parent, change))
    parent_q, change_q = quartiles(parent), quartiles(change)
    if parent_q["median"] is None or change_q["median"] is None:
        gap = iqr = None
        verdict = "unresolved"
    else:
        gap = sign * (parent_q["median"] - change_q["median"])
        iqr = parent_q["q3"] - parent_q["q1"]
        allowed = bound * abs(parent_q["median"])
        ran = [v for v in parent if v is not None], [v for v in change if v is not None]
        beats_all = all(sign * (p - c) > 0 for p in ran[0] for c in ran[1])
        if iqr > allowed and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "regressed" if -gap > allowed else "holds"
    return {"parent": parent_q, "change": change_q, "better": better,
            "change_better_in": f"{wins} of {len(parent)} pairs", "median_gap": gap,
            "parent_iqr": iqr, "win": wins >= MIN_WINS and gap is not None and gap > iqr,
            "bound": bound, "verdict": verdict}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    roots = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(roots["change"], "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]

    end_to_end = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                run = perfbench(roots[side], workload, i + 1, seconds)
                runs[side].append(run)
                print(workload, i + 1, side, run, file=sys.stderr, flush=True)
        row = {"seeds": list(range(1, PAIRS + 1)),
               "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
               "crashed": {side: [{"seed": seed, "exit_code": r["exit_code"], "stderr": r["stderr"]}
                                  for seed, r in enumerate(rs, 1) if "exit_code" in r]
                           for side, rs in runs.items()},
               "host_load": {side: [r["host"] for r in rs] for side, rs in runs.items()}}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row[name] = compare([r.get(name) for r in runs["parent"]],
                                [r.get(name) for r in runs["change"]], metric["better"],
                                metric["bound"])
        end_to_end[workload] = row
    # perfbench/run.py records the fingerprint of every run it completes
    machine = None
    for workload in reversed([w["name"] for w in spec["workloads"]]):
        last = os.path.join(roots["change"], ".perfbench", "results",
                            f"{workload}-seed{PAIRS}-trace0.json")
        if os.path.exists(last):
            with open(last) as fh:
                machine = json.load(fh)["fingerprint"]
            break

    record = {
        "how": {
            "command": f"python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} --trace 0",
            "pairing": "seed i ran on both checkouts back to back; odd seeds parent first, "
                       "even seeds change first",
            "win_rule": f"change better in at least {MIN_WINS} of {PAIRS} pairs, and the median "
                        "gap larger than the parent's interquartile range",
            "verdict": "unresolved if the parent's IQR exceeds bound x its median, unless "
                       "every change run beats every parent run; else regressed if the "
                       "change's median is worse by more than bound x the parent's median, "
                       "else holds",
            "host_load": "per run, in seed order: /proc/loadavg's 1-, 5- and 15-minute load "
                         "averages and /proc/stat's cumulative steal time (s) just before "
                         "and just after it",
        },
        "machine": machine,
        "end_to_end": end_to_end,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
