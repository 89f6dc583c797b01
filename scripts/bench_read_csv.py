"""Time read_csv's serial and two-process parse of one CSV in fresh processes.

Usage, from the root of a checkout:

    python3 scripts/bench_read_csv.py --csv wide.csv --write 500 100000 --pairs 3 --out read.json

``--write N P`` first writes the CSV: ``generate_scenario`` N/heavy with
``--seed`` (default 1), ``np.savetxt(fmt="%.10g")``.  Each pair then reads it
once serially (``SPLIT_MIN_BYTES`` above any file) and once on two cores,
each in a fresh process, alternating which runs first.  A process reports
the wall time of ``read_csv``, its own peak RSS and that of the largest child
it reaped (the parsing child; 0 when none ran); the two datasets' SHA-256
must agree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """
import hashlib, json, resource, sys, time
from survscreen import dataset
if sys.argv[2] == "serial":
    dataset.SPLIT_MIN_BYTES = 1 << 62
start = time.perf_counter()
data = dataset.read_csv(sys.argv[1])
wall = time.perf_counter() - start
digest = hashlib.sha256()
for arr in (data.x, data.delta, data.predictors):
    digest.update(arr.tobytes())
peak, child = (resource.getrusage(who).ru_maxrss / 1024
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
print(json.dumps({"wall_s": wall, "sha256": digest.hexdigest(), "peak_rss_mb": peak,
                  "child_peak_rss_mb": child}))
"""


def write_csv(path, n, p, seed):
    import numpy as np
    from survscreen import ScenarioSpec, generate_scenario

    data, _ = generate_scenario(ScenarioSpec(model="N", censoring="heavy", n=n, p=p, seed=seed))
    table = np.column_stack((data.x, data.delta, data.predictors))
    del data
    header = "time,status," + ",".join(f"u{k + 1}" for k in range(p))
    np.savetxt(path, table, delimiter=",", fmt="%.10g", header=header, comments="")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--csv", required=True)
    ap.add_argument("--write", nargs=2, type=int, metavar=("N", "P"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    if args.write:
        write_csv(args.csv, *args.write, args.seed)
    env = dict(os.environ, PYTHONPATH=src)
    runs = {"serial": [], "split": []}
    for i in range(args.pairs):
        for mode in (("serial", "split") if i % 2 == 0 else ("split", "serial")):
            done = subprocess.run([sys.executable, "-c", CHILD, args.csv, mode], env=env,
                                  capture_output=True, text=True, check=True)
            runs[mode].append(json.loads(done.stdout))
            print(mode, runs[mode][-1], file=sys.stderr, flush=True)
    digests = {run["sha256"] for side in runs.values() for run in side}
    record = {
        "command": "python3 scripts/bench_read_csv.py " + " ".join(argv or sys.argv[1:]),
        "csv_bytes": os.path.getsize(args.csv),
        "same_dataset": len(digests) == 1,
        "median_wall_s": {mode: statistics.median(r["wall_s"] for r in rs)
                          for mode, rs in runs.items()},
        "runs": runs,
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0 if record["same_dataset"] else 1


if __name__ == "__main__":
    sys.exit(main())
