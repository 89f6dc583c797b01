"""Command-line front end.

``survscreen screen`` ingests a `time,status,u1,...` CSV and prints a JSON
report; ``survscreen simulate`` runs seeded Monte-Carlo studies and prints
CSV.  Exit codes: 0 on successful computation (the statistical decision
lives in the report, never in the exit code), 2 on input errors, 3 on
numerical-degeneracy errors, 1 on any other failure the package reports
(such as a Monte-Carlo worker process that died) and when stdout is closed
before the output is written.
"""

import argparse
import json
import os
import secrets
import sys
import time

import numpy as np

from . import __version__
from .dataset import read_csv
from .errors import DegeneracyError, InputError, SurvScreenError, _level
from .onestep import bonferroni, bonferroni_test, one_step
from .simulate import METHODS as SIM_METHODS
from .simulate import MonteCarloReport, ScenarioSpec, monte_carlo_rejection
from .stabilized import multi_ordering_test


def _qn_value(text: str):
    if text == "half":
        return "half"
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--qn must be an integer or 'half', got {text!r}")


def _alpha_value(text: str) -> float:
    try:
        return _level(float(text))
    except (ValueError, InputError):
        raise argparse.ArgumentTypeError(f"--alpha must be a number in (0, 1), got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="survscreen", description=__doc__)
    parser.add_argument("--version", action="version", version=f"survscreen {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    screen = sub.add_parser("screen", help="screen a CSV dataset")
    screen.add_argument("csv", help="input file: time,status,u1,... (optionally .gz)")
    screen.add_argument("--method", choices=("stabilized", "bonferroni", "oracle"),
                        default="stabilized")
    screen.add_argument("--qn", type=_qn_value, default="half",
                        help="smallest prefix size (integer or 'half')")
    screen.add_argument("--orderings", type=int, default=10, metavar="R",
                        help="random orderings for the stabilized method")
    screen.add_argument("--alpha", type=_alpha_value, default=0.05)
    screen.add_argument("--variant", choices=("prefix", "full"), default="full")
    screen.add_argument("--tau", default="max", help="follow-up cap rule: max or q:<x>")
    screen.add_argument("--no-standardize", dest="standardize", action="store_false")
    screen.add_argument("--seed", type=int, default=None)
    screen.add_argument("--oracle-k", default=None, metavar="NAME",
                        help="predictor name (or 1-based index) for --method oracle")
    # the options one method alone reads, with their defaults: cmd_screen
    # rejects any other value under another method
    screen.set_defaults(method_options={
        name: (method, screen.get_default(name)) for name, method in
        (("qn", "stabilized"), ("orderings", "stabilized"), ("variant", "stabilized"),
         ("oracle_k", "oracle"))})

    simulate = sub.add_parser("simulate", help="Monte-Carlo rejection-rate study")
    simulate.add_argument("--model", choices=("N", "A1", "A2"), default="N")
    simulate.add_argument("--error", choices=("independent", "dependent"), default="independent")
    simulate.add_argument("--censoring", choices=("light", "heavy", "none"), default="light")
    simulate.add_argument("--n", type=int, default=500)
    simulate.add_argument("--p", type=int, default=100)
    simulate.add_argument("--rho", type=float, default=0.75)
    simulate.add_argument("--method", choices=SIM_METHODS, default="stabilized_full")
    simulate.add_argument("--reps", type=int, default=100)
    simulate.add_argument("--alpha", type=_alpha_value, default=0.05)
    simulate.add_argument("--orderings", type=int, default=10)
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--parallelism", type=int, default=1)
    simulate.add_argument("--no-header", dest="header", action="store_false")
    # as for screen: cmd_simulate rejects these before any replicate runs
    simulate.set_defaults(method_options={
        "orderings": ("stabilized_multiR", simulate.get_default("orderings"))})

    return parser


def _auto_seed(seed):
    return secrets.randbits(63) if seed is None else seed


def _check_method_options(args) -> None:
    for name, (method, default) in args.method_options.items():
        if args.method != method and getattr(args, name) != default:
            raise InputError(f"--{name.replace('_', '-')} is read only by --method {method}")


def cmd_screen(args) -> int:
    _check_method_options(args)
    if args.method == "oracle" and args.oracle_k is None:
        raise InputError("--method oracle requires --oracle-k")
    seed = _auto_seed(args.seed)
    start = time.perf_counter()
    data = read_csv(args.csv, tau_rule=args.tau, standardize=args.standardize)

    config = {
        "alpha": args.alpha,
        "method": args.method,
        "oracle_k": args.oracle_k,
        "orderings": args.orderings,
        "qn": args.qn,
        "seed": seed,
        "standardize": args.standardize,
        "tau": args.tau,
        "variant": args.variant,
    }
    report = {
        "censoring_fraction": data.censoring_fraction(),
        "config": config,
        "method": args.method,
        "n": data.n,
        "p": data.p,
        "seed": seed,
        "tau": data.tau,
        "tool": {"name": "survscreen", "version": __version__},
    }

    if args.method == "stabilized":
        outcome = multi_ordering_test(
            data, orderings=args.orderings, q_n=None if args.qn == "half" else args.qn,
            variant=args.variant, alpha=args.alpha, seed=seed,
        )
        best, p_values = outcome.best, outcome.p_values
        k, estimate = best.modal_k(), best.s_star
        report["orderings"] = [
            {
                "ordering": i,
                "p_value": r.p_value,
                "estimate": r.s_star,
                "selected_name": data.predictor_names[r.modal_k()],
                "distinct_selected": len(np.unique(r.k)),
            }
            for i, r in enumerate(outcome.results)
        ]
    elif args.method == "bonferroni":
        outcome = bonferroni_test(data, alpha=args.alpha)
        best, p_values = outcome.best, outcome.p_values
        k, estimate = outcome.selected, best.s_onestep
        report["n_tests"] = data.p
    else:
        k = data.column(args.oracle_k)
        best = one_step(data, k, alpha=args.alpha)
        p_values, estimate = (best.p_value,), best.s_onestep

    # one Bonferroni rule over the method's tests: R orderings, p predictors or one
    _, p_value, adjusted_p, reject = bonferroni(p_values, args.alpha)
    report.update({
        "estimate": estimate,
        "ci": [best.ci_low, best.ci_high],
        "p_value": p_value,
        "adjusted_p_value": adjusted_p,
        "selected": {"index": k + 1, "name": data.predictor_names[k]},
        "decision": {"alpha": args.alpha, "reject": reject},
    })

    report["timing_ms"] = (time.perf_counter() - start) * 1000.0
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    _check_method_options(args)
    seed = _auto_seed(args.seed)
    spec = ScenarioSpec(
        model=args.model, error=args.error, censoring=args.censoring,
        n=args.n, p=args.p, rho=args.rho, seed=seed,
    )
    report = monte_carlo_rejection(
        spec, args.method, args.reps, alpha=args.alpha,
        parallelism=args.parallelism, orderings=args.orderings,
    )
    if args.header:
        print(MonteCarloReport.csv_header() + ",alpha,seed")
    print(report.csv_row() + f",{args.alpha:.6g},{seed}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = (cmd_screen if args.command == "screen" else cmd_simulate)(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout; what is left in its buffer goes to
        # os.devnull, or the flush at exit would fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except InputError as exc:
        print(f"survscreen: error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"survscreen: numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except SurvScreenError as exc:
        print(f"survscreen: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
