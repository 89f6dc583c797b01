"""One measured (or set-up only) process of a benchmark run.

Started by run.py with the checkout's ``src`` on PYTHONPATH.  It sets up the
workload, then repeats the timed operation until ``--seconds`` have passed
(at least once).  With ``--trace 1`` it alternates untraced and traced
operations, so the same process yields the tracing overhead.  Results go to
the JSON file named by ``--out``; standard output is not used.
"""

import argparse
import json
import os
import sys
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken by the parent just before spawning")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.workdir, "sizes.json")) as fh:
        sizes = json.load(fh)
    name = args.workload
    state = workloads.setup(name, args.seed, sizes, args.workdir)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.started
    result = {"setup_s": setup_s, "ops": []}
    if args.setup_only:
        _write(args.out, result)
        return 0

    tracer = Tracer() if args.trace else None
    begin = time.perf_counter()
    traced_next = False
    while True:
        traced = tracer is not None and traced_next
        op = {"traced": traced, "wall_s": None, "summary": None, "rep_ms": None, "error": None}
        out = None
        if traced:
            tracer.install()
        start = time.perf_counter()
        try:
            if traced:
                out = tracer.run(lambda: workloads.run_op(name, args.seed, sizes, state))
            else:
                out = workloads.run_op(name, args.seed, sizes, state)
            op["wall_s"] = time.perf_counter() - start
            op["summary"] = workloads.summarize(name, state, out)
            op["rep_ms"] = workloads.rep_times_ms(name, out)
        except Exception:
            op["wall_s"] = op["wall_s"] or time.perf_counter() - start
            op["error"] = traceback.format_exc(limit=4)
        finally:
            if traced:
                tracer.uninstall()
        del out
        result["ops"].append(op)
        traced_next = not traced_next
        done = time.perf_counter() - begin >= args.seconds
        if done and (tracer is None or any(o["traced"] for o in result["ops"])):
            break
    if tracer is not None:
        result["trace"] = tracer.export()
    _write(args.out, result)
    return 0


def _write(path, result):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    sys.exit(main())
