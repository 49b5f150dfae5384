"""Command-line front end: validate, reach, solve, bench.

Reports go to stdout as JSON, each float in Python's shortest repr that
reads back to the same double; the bench subcommand writes CSV (and
optionally a histogram JSON) to files.  Exit codes: 0 success, 1 domain
error (invalid model, unreachable target, solver failure, unreadable
input), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bench import BenchConfig, iteration_histogram, run_experiment, write_csv
from .errors import ImcError, InvalidModel
from .model import ValidationReport, load_model
from .solvers import solve_brute, solve_policy, solve_value
from .transition import BOUNDS


def _write_report(fh, doc) -> None:
    fh.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _cmd_validate(args) -> int:
    # building the model validates it; a model that builds has no issue
    try:
        load_model(args.model)
        report = ValidationReport(())
    except InvalidModel as exc:
        report = exc.report
    doc = {"ok": report.ok,
           "issues": [{"code": i.code, "state": i.state, "detail": i.detail}
                      for i in report.issues]}
    _write_report(sys.stdout, doc)
    return 0 if report.ok else 1


def _cmd_reach(args) -> int:
    model = load_model(args.model)
    report = model.reachability
    labels = model.states.labels
    doc = {
        "holds": report.holds,
        "reach_step": {labels[x]: report.reach_step[x] for x in range(model.size)},
        "violating": [labels[x] for x in sorted(report.violating)],
    }
    _write_report(sys.stdout, doc)
    return 0 if report.holds else 1


def _cmd_solve(args) -> int:
    model = load_model(args.model)
    if args.method == "policy":
        report = solve_policy(model, args.bound, max_iter=args.max_iter)
    elif args.method == "value":
        report = solve_value(model, args.bound, tol=args.tol, max_iter=args.max_iter)
    else:
        report = solve_brute(model, args.bound)
    doc = {
        "method": report.method,
        "bound": report.bound,
        "states": list(model.states.labels),
        "values": [float(v) for v in report.solution.values],
        "iterations": report.iterations,
        "residual": report.residual,
        "tolerance_limited": report.tolerance_limited,
        "wall_time_s": report.wall_time,
    }
    if args.trace and report.trace is not None:
        doc["trace"] = [{"sup_norm": t.sup_norm, "policy_changes": t.policy_changes}
                        for t in report.trace]
    _write_report(sys.stdout, doc)
    return 0


def _cmd_bench(args) -> int:
    config = BenchConfig(sizes=args.sizes, vertices_per_row=args.vertices,
                         trials=args.trials, seed=args.seed)
    # an unwritable output path fails here, not after every trial has run
    for path in (args.out, args.hist):
        if path is not None:
            open(path, "a", encoding="utf-8").close()
    records = run_experiment(config, jobs=args.jobs)
    write_csv(records, args.out)
    if args.hist:
        histogram = {str(size): {str(i): c for i, c in counts.items()}
                     for size, counts in iteration_histogram(records).items()}
        with open(args.hist, "w", encoding="utf-8") as fh:
            _write_report(fh, histogram)
    print(f"wrote {len(records)} records to {args.out}")
    return 0


def _int_at_least(low: int, text: str) -> int:
    if int(text) < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
    return int(text)


def _positive_int(text: str) -> int:
    return _int_at_least(1, text)


def _non_negative_int(text: str) -> int:
    return _int_at_least(0, text)


def _sizes(text: str) -> tuple[int, ...]:
    return tuple(_int_at_least(2, size) for size in text.split(","))


def _positive_float(text: str) -> float:
    if not 0.0 < float(text) < float("inf"):  # also false for nan
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return float(text)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="imchit",
        description="Expected hitting-time bounds for imprecise Markov chains.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file")
    p.add_argument("--model", required=True, help="model JSON file")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("reach", help="check target reachability")
    p.add_argument("--model", required=True, help="model JSON file")
    p.set_defaults(func=_cmd_reach)

    p = sub.add_parser("solve", help="compute a hitting-time bound")
    p.add_argument("--model", required=True, help="model JSON file")
    p.add_argument("--bound", choices=BOUNDS, default="lower")
    p.add_argument("--method", choices=["policy", "value", "brute"],
                   default="policy")
    p.add_argument("--tol", type=_positive_float, default=1e-9,
                   help="stopping gap of value iteration (other methods ignore it)")
    p.add_argument("--max-iter", type=_positive_int, default=None,
                   help="safety cap on iterations: policy iteration defaults "
                        "to 10 x states, value iteration to 10**6; brute "
                        "force ignores it")
    p.add_argument("--trace", action="store_true",
                   help="include the per-iteration trace in the report")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="run the random-model iteration study")
    p.add_argument("--sizes", type=_sizes, required=True,
                   help="comma-separated state-space sizes, e.g. 100,200")
    p.add_argument("--vertices", type=_positive_int, default=50)
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--hist", default=None,
                   help="optional histogram JSON output path")
    p.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ImcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, ValueError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
