"""Peak RSS and wall time of one large screen, parent against change, in fresh processes.

Usage, with two checkouts (the parent commit and the change) side by side:

    python3 scripts/bench_screen_scale.py --parent PARENT_DIR --change CHANGE_DIR \
        --n 4000 --p 5000 --orderings 10 --pairs 3 --out BENCH_<topic>.json

Each run is a fresh process that imports survscreen from its checkout's
``src``, draws N/heavy data of ``--n`` rows and ``--p`` predictors with
``generate_scenario`` (``--seed``, default 1) and times
``multi_ordering_test(data, orderings=R, seed=0)``.  It reports the screen's
wall time, the part of it spent selecting (every call of
``stabilized._select_orderings``), the process's peak RSS before and after
the screen (``ru_maxrss``), and every ordering's p-value in hex.  The pairs alternate
which side runs first.  If ``--out`` already holds a JSON object (say, the
record of ``scripts/bench_compare.py``), the runs are added to it under
``one_off``; otherwise the file holds them alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

CHILD = """
import json, resource, sys, time
from survscreen import ScenarioSpec, generate_scenario, multi_ordering_test, stabilized
n, p, orderings, seed = (int(v) for v in sys.argv[1:5])
data, _ = generate_scenario(ScenarioSpec(model="N", censoring="heavy", n=n, p=p, seed=seed))
select, spent = stabilized._select_orderings, []
def timed(*args):
    start = time.perf_counter()
    out = select(*args)
    spent.append(time.perf_counter() - start)
    return out
stabilized._select_orderings = timed
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
start = time.perf_counter()
out = multi_ordering_test(data, orderings=orderings, seed=0)
wall = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"screen_wall_s": wall, "selection_s": sum(spent), "peak_rss_mb": peak,
                  "peak_rss_mb_before_screen": before,
                  "p_values": [float(v).hex() for v in out.p_values]}))
"""


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--n", type=int, default=4000)
    ap.add_argument("--p", type=int, default=5000)
    ap.add_argument("--orderings", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=3)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sizes = [str(v) for v in (args.n, args.p, args.orderings, args.seed)]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            root = os.path.abspath(getattr(args, side))
            env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
            done = subprocess.run([sys.executable, "-c", CHILD, *sizes], env=env, cwd=root,
                                  capture_output=True, text=True, check=True)
            runs[side].append(json.loads(done.stdout))
            print(side, runs[side][-1], file=sys.stderr, flush=True)
    p_values = {tuple(run["p_values"]) for side in runs.values() for run in side}
    record = {
        "command": ("python3 scripts/bench_screen_scale.py --parent PARENT_DIR --change CHANGE_DIR "
                    f"--n {args.n} --p {args.p} --orderings {args.orderings} --seed {args.seed} "
                    f"--pairs {args.pairs}"),
        "data": f"generate_scenario N/heavy n={args.n} p={args.p} seed={args.seed}; "
                f"multi_ordering_test orderings={args.orderings} seed=0",
        "same_p_values": len(p_values) == 1,
        "median": {side: {key: statistics.median(r[key] for r in rs)
                          for key in ("screen_wall_s", "selection_s", "peak_rss_mb")}
                   for side, rs in runs.items()},
        "runs": runs,
    }
    existing = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            existing = json.load(fh)
    with open(args.out, "w") as fh:
        json.dump({**existing, "one_off": record} if existing else record, fh, indent=1)
        fh.write("\n")
    return 0 if record["same_p_values"] else 1


if __name__ == "__main__":
    sys.exit(main())
