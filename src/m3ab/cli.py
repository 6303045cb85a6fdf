"""Command-line interface.

Subcommands: ``run`` (Monte-Carlo experiment over an algorithm/budget grid),
``sweep`` (one experiment per swept parameter value), ``complexity``
(instance hardness diagnostics and error bounds), ``gen`` (write a preset
instance to a JSON file), ``table1`` (self-check of the analytic validation
probabilities on the two-treatment example).

Contract: stdout (or --out) carries only machine-readable data; progress
lines go to stderr.  Every command is a deterministic function of its flags
— rerunning with the same flags produces byte-identical output.  Wall time
is the one unavoidable exception, so the ``seconds`` column is written as
0.000 unless --timing is passed.

Exit codes: 0 success, 1 self-check mismatch (table1), 2 bad flags or bad
input files, 3 infeasible (algorithm, budget) cell.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from pathlib import Path

from m3ab.complexity import (
    DEFAULT_MAX_ENUMERATION,
    delta_min,
    error_bound,
    h3,
    h3_prime,
    h3_tilde,
)
from m3ab.core import (
    Instance,
    best_treatment,
    joint_pass_probability,
    pass_probability,
)
from m3ab.errors import InsufficientBudgetError, M3ABError, TooLargeError
from m3ab.halving import ALGORITHMS
from m3ab.harness import ExperimentConfig, run_experiment, sweep
from m3ab.instances import PRESET_NAMES, load, preset, save, table1

__all__ = ["main", "entrypoint", "RUN_COLUMNS", "SWEEP_COLUMNS"]

RUN_COLUMNS = (
    "algo", "budget", "reps",
    "exploration_accuracy", "acc_ci_lo", "acc_ci_hi",
    "validation_success", "vs_ci_lo", "vs_ci_hi",
    "type1_error", "t1_ci_lo", "t1_ci_hi",
    "seconds",
)

SWEEP_COLUMNS = ("param", "value") + RUN_COLUMNS

# Pinned expectations for the table1 self-check: per-metric and joint pass
# probabilities for treatments 1 and 2, asserted within +/- 0.005.
TABLE1_EXPECTED = {1: (0.44, 0.44, 0.19), 2: (0.30, 0.99, 0.30)}
TABLE1_TOLERANCE = 0.005

_SWEEP_PARAMS = {"budget": "budget", "l": "heterogeneity_l", "t_v": "t_v"}


def _instance_flags(required: bool = True) -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_mutually_exclusive_group(required=required)
    group.add_argument("--instance", metavar="PATH",
                       help="load the instance from a JSON file")
    group.add_argument("--preset", choices=PRESET_NAMES,
                       help="use a built-in instance")
    parent.add_argument("--l", type=float, default=None,
                        help="variance-heterogeneity exponent "
                             "(exp2 preset only)")
    parent.add_argument("--instance-seed", type=int, default=0,
                        help="seed for presets with random components "
                             "(default 0, keeping runs reproducible)")
    return parent


def _harness_flags() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--algo", action="append", metavar="NAME",
                        choices=sorted(ALGORITHMS),
                        help="algorithm to run (repeatable); one of "
                             + ", ".join(sorted(ALGORITHMS)))
    parent.add_argument("--budget", action="append", type=int, metavar="T",
                        help="total exploration budget (repeatable)")
    parent.add_argument("--reps", type=int, default=10_000,
                        help="Monte-Carlo repetitions per cell "
                             "(default 10000)")
    parent.add_argument("--seed", type=int, default=0,
                        help="master seed for all random streams (default 0)")
    parent.add_argument("--out", default="-", metavar="PATH",
                        help="output file; '-' for stdout (default)")
    parent.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default csv)")
    parent.add_argument("--source", choices=("pulls", "means"),
                        default="means",
                        help="draw each reward ('pulls') or the stage "
                             "statistics from their exact laws ('means', "
                             "default; identical in distribution)")
    parent.add_argument("--timing", action="store_true",
                        help="report real wall time in the seconds column "
                             "(breaks byte-identical reruns)")
    parent.add_argument("--threads", type=int, default=None,
                        help="worker processes per experiment, at most "
                             "one per task and one per CPU (default: "
                             "M3AB_THREADS or 1); results are identical for "
                             "any value")
    return parent


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="m3ab",
        description="Fixed-budget best-treatment identification simulator.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("run", parents=[_instance_flags(), _harness_flags()],
                   help="Monte-Carlo experiment over an algorithm/budget grid")

    sweep_p = sub.add_parser(
        "sweep", parents=[_instance_flags(), _harness_flags()],
        help="one experiment per value of a swept parameter")
    sweep_p.add_argument("--param", choices=sorted(_SWEEP_PARAMS),
                         required=True, help="parameter to sweep")
    sweep_p.add_argument("--values", required=True, metavar="V1,V2,...",
                         help="comma-separated list of swept values")

    complexity_p = sub.add_parser(
        "complexity", parents=[_instance_flags()],
        help="hardness diagnostics and exploration error bounds")
    complexity_p.add_argument("--budget", action="append", type=int,
                              metavar="T",
                              help="budget at which to evaluate the "
                                   "corrected complexity and error bounds "
                                   "(repeatable)")
    complexity_p.add_argument("--max-enum", type=int,
                              default=DEFAULT_MAX_ENUMERATION,
                              help="refuse exhaustive subset enumeration "
                                   "beyond this many treatments (default "
                                   f"{DEFAULT_MAX_ENUMERATION}; never above "
                                   "64, the 63-bit subset mask)")

    gen_p = sub.add_parser("gen", help="write a preset instance as JSON")
    gen_p.add_argument("--preset", choices=PRESET_NAMES, required=True)
    gen_p.add_argument("--l", type=float, default=None,
                       help="variance-heterogeneity exponent (exp2 only)")
    gen_p.add_argument("--seed", type=int, default=0,
                       help="seed for presets with random components "
                            "(default 0, keeping runs reproducible)")
    gen_p.add_argument("--out", required=True, metavar="PATH")

    sub.add_parser("table1",
                   help="print the analytic pass probabilities of the "
                        "two-treatment example and check the pinned values")
    return parser


def _resolve_instance(args) -> Instance:
    if args.instance is not None:
        return load(args.instance)
    knobs = {}
    if args.l is not None:
        knobs["l"] = args.l
    return preset(args.preset, seed=args.instance_seed, **knobs)


def _threads(args) -> int:
    value = os.environ.get("M3AB_THREADS", "1") if args.threads is None else args.threads
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"M3AB_THREADS must be an integer, got {value!r}") from None


def _cell_row(cell, timing: bool) -> dict:
    row = {"algo": cell.algorithm, "budget": cell.budget, "reps": cell.repetitions}
    for metric, ci in (("exploration_accuracy", "acc"), ("validation_success", "vs"),
                       ("type1_error", "t1")):
        row[metric] = cell.rate(metric)
        row[f"{ci}_ci_lo"], row[f"{ci}_ci_hi"] = cell.interval(metric)
    return {**row, "seconds": cell.seconds if timing else 0.0}


def _format_value(column: str, value) -> str:
    if column in ("algo", "param"):
        return str(value)
    if column in ("budget", "reps"):
        return str(int(value))
    if column == "value":
        return f"{value:g}"
    if column == "seconds":
        return f"{value:.3f}"
    return f"{value:.6f}"


def _render(rows: list[dict], columns: tuple[str, ...], fmt: str) -> str:
    if fmt == "json":
        return json.dumps({"rows": rows}, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_format_value(c, row[c]) for c in columns])
    return buffer.getvalue()


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _progress(message: str) -> None:
    print(f"[m3ab] {message}", file=sys.stderr, flush=True)


def _config(args, instance, budgets) -> ExperimentConfig:
    return ExperimentConfig(instance=instance, algorithms=args.algo,
                            budgets=budgets, repetitions=args.reps,
                            master_seed=args.seed,
                            reward_source=args.source)


def cmd_run(args) -> int:
    if not args.algo:
        _progress("error: at least one --algo is required")
        return 2
    if not args.budget:
        _progress("error: at least one --budget is required")
        return 2
    instance = _resolve_instance(args)
    config = _config(args, instance, args.budget)
    report = run_experiment(config, threads=_threads(args))
    total = sum(c.seconds for c in report.cells)
    _progress(f"run: {len(report.cells)} cells x {args.reps} reps "
              f"in {total:.2f}s")
    rows = [_cell_row(c, args.timing) for c in report.cells]
    _emit(_render(rows, RUN_COLUMNS, args.format), args.out)
    return 0


def _parse_values(args) -> list:
    values = []
    for item in args.values.split(","):
        item = item.strip()
        if not item:
            continue
        number = float(item)
        if not math.isfinite(number):
            raise ValueError(f"--values must be finite numbers, got {item!r}")
        # ints keep the json bytes; sweep refuses fractions
        values.append(int(number) if args.param != "l" and number.is_integer() else number)
    if not values:
        raise ValueError("--values must list at least one value")
    return values


def cmd_sweep(args) -> int:
    if not args.algo:
        _progress("error: at least one --algo is required")
        return 2
    values = _parse_values(args)
    if args.param == "budget":
        if args.budget:
            _progress("error: --budget conflicts with --param budget "
                      "(budgets come from --values)")
            return 2
        budgets = (1,)  # placeholder; the sweep replaces it per value
    else:
        if not args.budget:
            _progress("error: at least one --budget is required")
            return 2
        budgets = args.budget
    if args.param == "l":
        if args.preset is None:
            _progress("error: --param l requires --preset (the instance is "
                      "rebuilt per value)")
            return 2
        if args.l is not None:
            _progress("error: --l conflicts with --param l")
            return 2
        config = _config(args, lambda l, name=args.preset, seed=args.instance_seed:
                         preset(name, seed=seed, l=l), budgets)
    else:
        config = _config(args, _resolve_instance(args), budgets)
    reports = sweep(config, _SWEEP_PARAMS[args.param], values,
                    threads=_threads(args))
    rows = []
    for report in reports:
        total = sum(c.seconds for c in report.cells)
        _progress(f"sweep {args.param}={report.value:g}: "
                  f"{len(report.cells)} cells in {total:.2f}s")
        for cell in report.cells:
            rows.append({"param": args.param, "value": report.value,
                         **_cell_row(cell, args.timing)})
    _emit(_render(rows, SWEEP_COLUMNS, args.format), args.out)
    return 0


def cmd_complexity(args) -> int:
    instance = _resolve_instance(args)
    lines = [f"instance: A={instance.num_treatments} treatments, "
             f"M={instance.num_metrics} metrics",
             f"best treatment: {best_treatment(instance)}",
             f"delta_min: {delta_min(instance):.6g}"]
    try:
        report = h3(instance, max_enumeration=args.max_enum)
        lines.append(f"H3: {report.h3:.6g}")
        lines.append("attaining subset: "
                     + ",".join(str(a) for a in report.argmin_subset))
        lines.append(f"rho_sigma: {report.rho_sigma:.6g}")
        lines.append(f"lambda_sigma: {report.lambda_sigma:.6g}")
    except TooLargeError as exc:
        report = None
        lines.append(f"H3: too large to enumerate ({exc})")
    lines.append(f"H3': {h3_prime(instance):.6g}")
    for budget in args.budget or ():
        # h3' lies below h3, so it cannot stand in for h3 in a bound
        if report is None:
            lines.append(f"budget {budget}: no error bound (H3 not enumerated)")
            continue
        parts = [f"budget {budget}:"]
        if budget > 0:
            tilde = h3_tilde(instance, budget, args.max_enum)
            parts.append(f"H3~={tilde:.6g}")
        for variant in ("theorem1", "theorem2"):
            bound = error_bound(budget, instance.num_treatments,
                                instance.num_metrics, report.h3, variant)
            suffix = " (vacuous)" if bound.vacuous else ""
            parts.append(f"{variant} bound={bound.value:.6g}{suffix}")
        lines.append(" ".join(parts))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_gen(args) -> int:
    knobs = {"l": args.l} if args.l is not None else {}
    instance = preset(args.preset, seed=args.seed, **knobs)
    save(instance, args.out)
    _progress(f"gen: wrote {args.preset} to {args.out}")
    return 0


def cmd_table1(args) -> int:
    del args
    instance = table1()
    print("treatment  P(pass metric 1)  P(pass metric 2)  P(pass all)  "
          "P(pass bottleneck)")
    failures = []
    for treatment in instance.treatments:
        per_metric = [pass_probability(instance, treatment, i)
                      for i in range(instance.num_metrics)]
        joint = joint_pass_probability(instance, treatment)
        print(f"{treatment:<9d}  {per_metric[0]:<16.4f}  {per_metric[1]:<16.4f}"
              f"  {joint:<11.4f}  {min(per_metric):.4f}")
        for got, expected in zip([*per_metric, joint],
                                 TABLE1_EXPECTED[treatment]):
            if not math.isclose(got, expected, abs_tol=TABLE1_TOLERANCE):
                failures.append(
                    f"treatment {treatment}: {got:.4f} != {expected} "
                    f"(+/- {TABLE1_TOLERANCE})")
    if failures:
        for failure in failures:
            _progress("table1 mismatch: " + failure)
        return 1
    _progress("table1: all 6 probabilities within +/- 0.005")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "sweep": cmd_sweep,
    "complexity": cmd_complexity,
    "gen": cmd_gen,
    "table1": cmd_table1,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad flags, 0 on --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except InsufficientBudgetError as exc:
        _progress(f"infeasible cell: {exc}")
        return 3
    except (M3ABError, ValueError, TypeError, OSError) as exc:
        _progress(f"error: {exc}")
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
