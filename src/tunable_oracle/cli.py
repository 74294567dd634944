"""Command-line interface.

Subcommands:

* ``schedule``   — solve an accuracy- or work-controlled allocation from a
  coefficient CSV and write the resulting schedule.
* ``experiment`` — run one of the three benchmark experiments from a config
  file and emit trajectory/summary/schedule CSVs.
* ``toy``        — reproduce the 80-iteration log-squared showcase instance
  and emit its schedule data.
"""

from __future__ import annotations

import argparse
import sys

from .cost_models import LOG_SQUARED, LOGARITHMIC, POWER, CostModel
from .harness import (emit_outputs, export_schedule, import_coefficients, load_config,
                      run_experiment, toy_instance)
from .schedule_solver import (
    ScheduleProblem,
    WorkProblem,
    reference_budget,
    solve_accuracy,
    solve_work,
)


def _parse_cost(spec: str) -> CostModel:
    """``power:R`` | ``log`` | ``logsq`` -> the cost model, which checks R."""
    if spec == "log":
        return CostModel(LOGARITHMIC)
    if spec == "logsq":
        return CostModel(LOG_SQUARED)
    if spec.startswith("power:"):
        try:
            r = float(spec.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad power exponent in cost spec {spec!r}")
        return CostModel(POWER, r)
    raise ValueError(f"unknown cost spec {spec!r}; expected power:R, log or logsq")


def _solve_and_report(label: str, solve, problem, budget: float):
    """Solve ``problem``, print the CLI's one certificate line and return the schedule."""
    schedule, cert = solve(problem)
    print(f"{label}: N={problem.size} N_plus={cert.n_plus} "
          f"N_minus={cert.n_minus} lambda_star={cert.lambda_star:.6g} "
          f"budget={budget:.6g} probes={cert.probes} "
          f"budget_residual={cert.budget_residual:.3g}")
    return schedule


# each mode's own flags, as (argparse dest, flag): required in it, refused in the other
_ACCURACY_FLAGS = (("delta_ref", "--delta-ref"), ("m", "--m"), ("M", "--M"))
_WORK_FLAGS = (("budget", "--budget"), ("wmin", "--wmin"), ("wmax", "--wmax"))


def _cmd_schedule(args) -> int:
    mode, own, other = (("--work", _WORK_FLAGS, _ACCURACY_FLAGS) if args.work
                        else ("accuracy mode", _ACCURACY_FLAGS, _WORK_FLAGS))
    stray = [flag for dest, flag in other if getattr(args, dest) is not None]
    if stray:
        raise ValueError(f"{mode} does not take {', '.join(stray)}")
    if any(getattr(args, dest) is None for dest, _ in own):
        *first, last = (flag for _, flag in own)
        raise ValueError(f"{mode} requires {', '.join(first)} and {last}")
    cost = _parse_cost(args.cost)
    a, b = import_coefficients(args.coeffs)
    if args.work:
        if cost.kind == LOG_SQUARED:
            raise ValueError("the work-controlled solver covers power and log costs only")
        problem = WorkProblem(a, b, omega_bar=args.budget, omega_M=args.wmin,
                              omega_m=args.wmax, r=cost.r)
        schedule = _solve_and_report("work schedule", solve_work, problem, problem.omega_bar)
    else:
        problem = ScheduleProblem(a, b, args.delta_ref, args.m, args.M, cost)
        schedule = _solve_and_report("accuracy schedule", solve_accuracy, problem,
                                     reference_budget(problem))
    export_schedule(schedule, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    result = run_experiment(load_config(args.config, experiment=args.id, seeds=args.seeds))
    for path in emit_outputs(result, args.out):
        print(f"wrote {path}")
    for summary in result.summaries:
        print(f"experiment {summary.experiment} schedule={summary.schedule} "
              f"N={summary.N} delta_ref={float(summary.delta_ref)!r} "
              f"median_gap={summary.median_gap:.6g} "
              f"total_inner_work={summary.total_inner_work:.6g}")
    for name, seed, n_iter, dref, message in result.failures:
        print(f"FAILED run schedule={name} seed={seed} N={n_iter} "
              f"delta_ref={float(dref)!r}: {message}", file=sys.stderr)
    return 1 if result.failures else 0


def _cmd_toy(args) -> int:
    problem = toy_instance()
    schedule = _solve_and_report("toy instance", solve_accuracy, problem,
                                 reference_budget(problem))
    export_schedule(schedule, args.out or sys.stdout)
    if args.out:
        print(f"wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tunable-oracle",
        description="Optimal inexactness schedules for tunable-oracle methods.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sched = sub.add_parser("schedule", help="solve an allocation problem")
    p_sched.add_argument("--coeffs", required=True,
                         help="coefficient CSV with header k,a,b")
    p_sched.add_argument("--cost", required=True,
                         help="cost shape: power:R, log or logsq")
    p_sched.add_argument("--delta-ref", type=float, dest="delta_ref",
                         help="reference inexactness (accuracy mode)")
    p_sched.add_argument("--m", type=float, help="lower bound factor (accuracy mode)")
    p_sched.add_argument("--M", type=float, help="upper bound factor (accuracy mode)")
    p_sched.add_argument("--work", action="store_true",
                         help="solve the work-controlled variant")
    p_sched.add_argument("--budget", type=float, help="total work budget (work mode)")
    p_sched.add_argument("--wmin", type=float, help="per-iteration work lower bound")
    p_sched.add_argument("--wmax", type=float, help="per-iteration work upper bound")
    p_sched.add_argument("--out", required=True, help="output schedule CSV")
    p_sched.set_defaults(func=_cmd_schedule)

    p_exp = sub.add_parser("experiment", help="run a benchmark experiment")
    p_exp.add_argument("--id", type=int, required=True, choices=(1, 2, 3))
    p_exp.add_argument("--config", required=True, help="key = value config file")
    p_exp.add_argument("--out", required=True, help="output directory")
    p_exp.add_argument("--seeds", help="seed override, comma-separated as in a config file")
    p_exp.set_defaults(func=_cmd_experiment)

    p_toy = sub.add_parser("toy", help="reproduce the showcase toy instance")
    p_toy.add_argument("--out", help="optional output schedule CSV")
    p_toy.set_defaults(func=_cmd_toy)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
