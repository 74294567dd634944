"""Experiment harness: builds budget-matched inexactness schedules, runs the
inexact fast gradient method over seeded instances, and aggregates the
trajectories into deterministic CSV outputs. Every CSV table the package
writes, to a file or to a stream such as stdout, goes through the one writer
of this module, so both carry the same bytes; every file it reads is a
coefficient file, read by ``import_coefficients``.

Three experiments are supported:

1. softmax-smoothed robust objective with a synthetic tunable-noise oracle,
   fixed stepsize;
2. robust optimization over the convex hull of scenarios with a FISTA inner
   solver as the costly oracle, fixed stepsize;
3. the hull problem with an adaptive stepsize and an online schedule extended
   from a short bootstrap solve.

Each sweep resolves its experiment once, into one record; ``_experiment``,
which builds it, is the only function on the run path that reads the id.
"""

from __future__ import annotations

import csv
import math
import numbers
import os
import statistics
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, TextIO, get_args, get_origin, get_type_hints

import numpy as np

from .certificates import (
    fixed_step_certificates,
    impact_coefficients_fgm,
    next_certificate,
)
from .cost_models import LOGARITHMIC, POWER, CostModel
from .fgm import BlockReply, FgmError, fgm_run, project_simplex
from .problems import (
    InnerState,
    OracleError,
    ScenarioData,
    generate_scenarios,
    hull_oracle,
    hull_value,
    kappa_hat,
    noisy_oracle,
    softmax_value_grad,
)
from .schedule_solver import (
    Schedule,
    ScheduleProblem,
    SolverError,
    accuracy_problem,
    online_extend_accuracy,
    solve_accuracy,
)


class HarnessError(RuntimeError):
    pass


ALL_SCHEDULES = ("tunable", "constant", "poly3", "linear", "online_tunable")
DATA_SEED = 1234           # seed of the scenario matrix
SAMPLE_PRECISION = 1e-8    # inner precision of the sampled objective values
FSTAR_PRECISION = 1e-10    # inner precision of terminal values and f*
ORACLE_FLOOR = 1e-12       # smallest certifiable inner target
N_R = 50                   # online bootstrap length of experiment 3


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: int
    d: int
    n: int
    p: float
    sigma: float = 1e-3
    mu: float = 0.0
    r: float = -1.0             # cost exponent; -1 = pick via kappa_hat
    delta_ref: tuple[float, ...] = (1e-3,)
    N: tuple[int, ...] = (500,)
    M: float = 100.0
    seeds: tuple[int, ...] = (0, 1, 2)
    schedules: tuple[str, ...] = ("tunable", "constant")
    sample_every: int = 10

    def __post_init__(self):
        # only the file parser applies the annotations: check the int fields
        # and tuple[int, ...] entries here (a bool is not a count)
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            entries = value if kind == tuple[int, ...] else (value,) if kind is int else ()
            if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool)
                       for v in entries):
                raise HarnessError(f"{name} must hold integers, got {value!r}")
        if self.experiment not in (1, 2, 3):
            raise HarnessError(f"unknown experiment {self.experiment}")
        if min(self.d, self.n) < 1 or self.p <= 0.0:
            raise HarnessError("need d, n >= 1 and p > 0")
        # NaN passes the `<=` checks; M (which may be +inf) is checked with
        # its bound, which NaN fails
        for name in ("p", "sigma", "mu", "r"):
            if not math.isfinite(getattr(self, name)):
                raise HarnessError(f"{name} must be finite")
        if self.sigma <= 0.0 or self.mu < 0.0:
            raise HarnessError("need sigma > 0 and mu >= 0")
        for name in ("p", "sigma", "mu"):
            # the scenario scale is 1/sqrt(p), the step constant 2/sigma and
            # the lower model steps by g/mu
            value = getattr(self, name)
            if value and not math.isfinite(2.0 / value):
                raise HarnessError(f"{name} is too small: 2/{name} overflows")
        if self.r < 0.0 and self.r != -1.0:
            raise HarnessError("r must be >= 0, or -1 (auto)")
        for name in _LIST_ELEMENTS:
            if not getattr(self, name):
                raise HarnessError(f"{name} must list at least one entry")
            # a repeated entry would repeat its runs and double-count them
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise HarnessError(f"{name} lists an entry twice")
        if not all(0.0 < v < math.inf for v in self.delta_ref):
            raise HarnessError("delta_ref values must be finite and > 0")
        if self.experiment != 1 and min(self.delta_ref) <= ORACLE_FLOOR:
            # the solved box starts at floor/dref, which must be below 1
            raise HarnessError(f"delta_ref values must exceed the oracle floor "
                               f"{ORACLE_FLOOR:g} in experiments 2 and 3")
        if min(self.N) < 1:
            raise HarnessError("N values must be >= 1")
        if not self.M > 1.0:
            raise HarnessError("M must be > 1")
        if min(self.seeds) < 0:
            raise HarnessError("need seeds >= 0")
        for name in self.schedules:
            if name not in ALL_SCHEDULES:
                raise HarnessError(f"unknown schedule family {name!r}")
            if name == "online_tunable" and self.experiment != 3:
                raise HarnessError("online_tunable runs under experiment 3 only")
            if name == "tunable" and self.experiment == 3:
                raise HarnessError("experiment 3 uses online_tunable, not tunable")
            if name == "linear" and self.mu == 0.0:
                raise HarnessError("the linear baseline degenerates when mu = 0")
        if self.sample_every < 1:
            raise HarnessError("sample_every must be >= 1")
        if self.r >= 0.0:  # auto (-1) waits for the data
            _cost_model(self)


def _cost_model(config: ExperimentConfig, data: ScenarioData | None = None) -> CostModel:
    """The config's cost model, the one reader of its exponent r: power
    delta^-r for r > 0, log for r = 0, and for auto (-1) log where the inner
    solver converges linearly (kappa_hat(data) > 0), else power r = 0.5. A
    solved family's box must end below its delta_max: fail before any run."""
    r = config.r if config.r >= 0.0 else (0.0 if kappa_hat(data) > 0.0 else 0.5)
    cost = CostModel(POWER, r) if r > 0.0 else CostModel(LOGARITHMIC)
    solved = {"tunable", "online_tunable"}.intersection(config.schedules)
    top = cost.delta_max
    if solved and top < math.inf and not config.M * max(config.delta_ref) < top:
        raise HarnessError(f"the {cost.kind} cost of {sorted(solved)} needs "
                           f"M*delta_ref < {top:g}, got M = {config.M:g} and "
                           f"delta_ref = {max(config.delta_ref):g}")
    return cost


def default_config(experiment: int) -> ExperimentConfig:
    """Desk-scale defaults; a config file can override every field but the
    experiment id."""
    if experiment == 1:
        return ExperimentConfig(
            experiment=1, d=30, n=100, p=10.0, mu=0.0, r=1.0,
            delta_ref=(1e-3,), N=(500,), seeds=(0, 1, 2, 3, 4), schedules=("tunable", "constant"))
    if experiment == 2:
        return ExperimentConfig(
            experiment=2, d=200, n=100, p=0.2, sigma=1e-3, mu=0.1,
            r=-1.0, delta_ref=(1e-3,), N=(500,),
            seeds=(0, 1, 2), schedules=("tunable", "constant"))
    if experiment == 3:
        return ExperimentConfig(
            experiment=3, d=100, n=50, p=0.2, sigma=3e-3, mu=0.1,
            r=0.0, delta_ref=(1e-4,), N=(2000,), seeds=(0, 1, 2),
            schedules=("online_tunable", "constant", "poly3", "linear"))
    raise HarnessError(f"unknown experiment {experiment}")


# ---------------------------------------------------------------------------
# config file parsing (line-oriented ``key = value``)
# ---------------------------------------------------------------------------

# the annotations are each field's one type; a list field is tuple[elem, ...]
_FIELD_TYPES = get_type_hints(ExperimentConfig)
_LIST_ELEMENTS = {name: get_args(kind)[0] for name, kind in _FIELD_TYPES.items()
                  if get_origin(kind) is tuple}


def _parse_value(key: str, raw: str):
    if key in _LIST_ELEMENTS:
        elem = _LIST_ELEMENTS[key]
        return tuple(elem(tok.strip()) for tok in raw.split(",") if tok.strip())
    if key == "r" and raw.strip() == "auto":
        return -1.0
    return _FIELD_TYPES[key](raw)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; blank lines and #-comments are skipped."""
    # the experiment id comes from the caller, not from the file
    known = _FIELD_TYPES.keys() - {"experiment"}
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise HarnessError(f"line {lineno}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in known:
            raise HarnessError(f"line {lineno}: unknown config key {key!r}")
        if key in out:
            raise HarnessError(f"line {lineno}: duplicate config key {key!r}")
        try:
            out[key] = _parse_value(key, raw.strip())
        except ValueError as exc:
            raise HarnessError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return out


def load_config(path: str, experiment: int, seeds: str | None = None) -> ExperimentConfig:
    # ``seeds``, comma-separated as in the file, parses first and overrides it
    try:
        pinned = {} if seeds is None else {"seeds": _parse_value("seeds", seeds)}
    except ValueError as exc:
        raise HarnessError(f"seeds override: bad value for 'seeds': {exc}") from exc
    with open(path) as fh:
        overrides = parse_config_text(fh.read())
    return replace(default_config(experiment), **{**overrides, **pinned})


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------

def _linear_base(mu: float, L: float) -> float:
    """The contraction 1 - sqrt(mu/L) of the linear baseline."""
    if mu <= 0.0:
        raise HarnessError("the linear baseline degenerates when mu = 0")
    base = 1.0 - math.sqrt(mu / L)
    if not (0.0 < base < 1.0):
        raise HarnessError("linear baseline requires 0 < 1 - sqrt(mu/L) < 1")
    return base


def baseline_schedule(name: str, delta_ref: float, mu: float, L: float,
                      N: int) -> Schedule:
    """Literature baselines: constant, cubic decay, linear(-rate) schedule.

    The linear schedule grows as delta_ref * (1 - sqrt(mu/L))^(-k).
    """
    k = np.arange(N, dtype=float)
    if name == "constant":
        values = np.full(N, delta_ref)
    elif name == "poly3":
        values = delta_ref * (k + 1.0) ** -3.0
    elif name == "linear":
        with np.errstate(over="ignore"):  # inf once k |log base| passes ~709
            values = delta_ref * _linear_base(mu, L) ** -k
    else:
        raise HarnessError(f"unknown baseline {name!r}")
    return Schedule(values, "accuracy")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

# a tuple builds faster than a frozen dataclass: a sweep makes one per step and run
class RunRecord(NamedTuple):
    experiment: int
    schedule: str
    seed: int
    k: int
    delta: float
    omega: float
    L: float
    A: float
    objective: float | None
    cum_work: float


class SummaryRow(NamedTuple):
    experiment: int
    schedule: str
    mu: float
    r: float
    N: int
    delta_ref: float
    median_gap: float
    mean_gap: float
    total_inner_work: float


@dataclass(frozen=True)
class ExperimentResult:
    records: list
    summaries: list
    schedules: dict          # label -> Schedule, for schedule.csv emission
    failures: list           # (schedule, seed, N, delta_ref, message)


# ---------------------------------------------------------------------------
# experiment execution
# ---------------------------------------------------------------------------

def _seed_streams(config: ExperimentConfig, seed: int):
    """Per-seed RNG streams shared by every schedule family (paired runs)."""
    root = np.random.SeedSequence([config.experiment, DATA_SEED, seed])
    x0_ss, noise_ss = root.spawn(2)
    return np.random.default_rng(x0_ss), np.random.default_rng(noise_ss)


def estimate_fstar(f: float, g: np.ndarray, x_hat: np.ndarray, mu: float) -> float:
    """Lower bound on the optimum over the simplex of a mu-strongly convex
    objective with value f and gradient g at x_hat: the minimum of its
    quadratic (mu > 0) or linear (mu = 0) lower model.

    The quadratic minimum exceeds the linear one by at most mu, because
    ||e_j - x_hat||^2 <= 2. Its minimizer is the projection of x_hat - g/mu,
    which loses x_hat to rounding as |g|/mu nears 2^52 and then overshoots
    the optimum. So the quadratic model is used only while |g|/mu keeps at
    least half the digits of x_hat, mu >= sqrt(eps)*max|g|; below, the
    linear model gives away at most mu.
    """
    if mu > 0.0 and mu >= math.sqrt(math.ulp(1.0)) * float(np.abs(g).max()):
        x_m = project_simplex(x_hat - g / mu)
        diff = x_m - x_hat
        return f + float(g @ diff) + 0.5 * mu * float(diff @ diff)
    return f + float(np.min(g)) - float(g @ x_hat)


@dataclass(frozen=True)
class _Experiment:
    """What the run path needs of one experiment, resolved once per sweep.
    Its callables look each oracle up in the module globals when called, so
    a wrapper swapped in there sees every call."""
    data: ScenarioData     # the scenarios, for the single-run f* reference
    cost: CostModel        # the oracle cost model the schedules are solved for
    L: float               # the fixed step, or the adaptive search's ceiling
    lo: float              # low end of every request box (the oracle's floor)
    hi: float              # largest request the oracle's cost admits
    adaptive: bool
    fstar: float | None    # shared f*; None: the best end point of each cell
    start: Callable        # noise rngs, one per run -> a block's oracle and
                           # sample(X, rows), the objective at the rows of X
    terminal: Callable     # x -> (value, gradient) of a run's end point


def _experiment(config: ExperimentConfig, data: ScenarioData) -> _Experiment:
    """The sweep's record: the one reader of the experiment id on the run
    path. Every domain check runs here, before the f* reference and any run."""
    cost = _cost_model(config, data)
    softmax = config.experiment == 1
    # experiment 3's L is the validity ceiling of its adaptive search
    L = (data.lam_max if softmax else
         (2.0 if config.experiment == 2 else 1.0) / config.sigma) + config.mu
    if "linear" in config.schedules:
        _linear_base(config.mu, L)  # fail before any run, not mid-sweep
    if softmax:
        exp = _Experiment(
            data=data, cost=cost, L=L, lo=0.0, hi=cost.delta_max,
            adaptive=False, fstar=None,
            start=lambda rngs: (
                lambda X, deltas, rows: noisy_oracle(data, X, deltas,
                                                     [rngs[i] for i in rows], cost),
                lambda X, _rows: softmax_value_grad(data, X)[0]),
            terminal=lambda x: softmax_value_grad(data, x))
        # the noise-free reference depends on max(N) only, so it runs once
        return replace(exp, fstar=_reference_fstar_exp1(config, exp))

    def start(rngs):  # a run's oracle calls and samples share its warm start
        states = [InnerState() for _ in rngs]

        def oracle(X, deltas, rows):  # one inner solve per row
            got = [hull_oracle(data, x, delta, states[i]) for x, delta, i in zip(X, deltas, rows)]
            return BlockReply([r.value for r in got], np.array([r.gradient for r in got]),
                              [r.delta for r in got], [r.inner_work for r in got])
        return oracle, lambda X, rows: [hull_value(data, x, SAMPLE_PRECISION, state=states[i])
                                        for x, i in zip(X, rows)]

    def terminal(x):  # a cold solve, apart from the run's warm start
        reply = hull_oracle(data, x, FSTAR_PRECISION, InnerState())
        return reply.value, reply.gradient
    return _Experiment(
        # the hull oracle charges its measured inner iterations, not the model
        data=data, cost=cost, L=L, lo=ORACLE_FLOOR, hi=math.inf,
        adaptive=config.experiment == 3,
        fstar=None, start=start, terminal=terminal)


def _reference_fstar_exp1(config: ExperimentConfig, exp: _Experiment) -> float:
    """Noise-free run of 4*max(N) steps, then the lower model."""
    # once A_k exceeds ~1e18 the bound R^2/A_k is below double resolution of
    # the objective; longer runs only risk certificate overflow
    A, n_ref = 0.0, 0
    while n_ref < 4 * max(config.N) and A < 1e18:
        A = next_certificate(A, exp.L, config.mu)
        n_ref += 1
    # delta = 0 draws no noise: the oracle needs no stream
    x_hat, _ = fgm_run(lambda x, delta: noisy_oracle(exp.data, x, delta, None, exp.cost),
                       lambda k, A: 0.0, n_ref, np.full(config.d, 1.0 / config.d),
                       exp.L, config.mu)
    f, g = exp.terminal(x_hat)
    return estimate_fstar(f, g, x_hat, config.mu)


def _tunable_values(config: ExperimentConfig, steps: int, delta_ref: float,
                    exp: _Experiment) -> tuple[np.ndarray, Schedule]:
    """The FGM impact row of ``steps`` fixed steps and the schedule solved on
    it, from ``exp.lo`` up, at the modeled cost of constant δ̄ (budget-matched)."""
    try:
        a, b = impact_coefficients_fgm(fixed_step_certificates(steps, exp.L, config.mu))
    except ValueError as exc:  # the certificates overflow or stop growing
        raise SolverError(f"no FGM impact row of {steps} steps: {exc}") from exc
    m = exp.lo / delta_ref
    if m * delta_ref < exp.lo:  # the solver's box starts at m * delta_ref
        m = math.nextafter(m, math.inf)
    problem = ScheduleProblem(a, b, delta_ref, m, config.M, exp.cost)
    return a, solve_accuracy(problem)[0]


_HORIZON_BOUND = ("tunable",)  # the families whose requests read N: one run per N


def _family_schedule(config: ExperimentConfig, name: str, delta_ref: float,
                     N: int, exp: _Experiment):
    """The step callback ``(k, A_next) -> delta`` of one family and its
    schedule to emit (None when online); a failed build raises SolverError.

    A family not in ``_HORIZON_BOUND`` is horizon-free: its callback built at
    N gives, for every k < N and any A_next, the delta of its callback built
    at any longer horizon. The sweep then runs it once at its longest horizon
    and reads every shorter one off that run.
    """
    box = (exp.lo, config.M * delta_ref)  # the cost model ends at M δ̄
    if name == "online_tunable":
        # bootstrap values for k < N_R, then the online extension rule
        a, boot = _tunable_values(config, N_R, delta_ref, exp)
        last = (float(a[-1]), 1.0, float(boot.values[-1]))

        def online(k, A_next):
            if k < N_R:
                return boot.values[k]
            return online_extend_accuracy(last, (A_next, 1.0), exp.cost.r, box)
        return online, None
    if name == "tunable":
        sched = _tunable_values(config, N, delta_ref, exp)[1]
    else:  # baseline requests are clipped into the box
        sched = baseline_schedule(name, delta_ref, config.mu, exp.L, N)
        sched = Schedule(np.clip(sched.values, *box), sched.kind)
    over = np.flatnonzero(sched.values > exp.hi)
    if over.size:  # only experiment 1's log cost caps a request, at 1
        k = int(over[0])
        raise SolverError(f"the {name} schedule asks the {exp.cost.kind} cost for delta > "
                          f"{exp.hi:g} at k = {k}: delta = {float(sched.values[k])!r}")
    return (lambda k, _A_next: sched.values[k]), sched


_NUMERICAL = (OracleError, FgmError, SolverError)  # fail a run, not the sweep


def _run_block(config: ExperimentConfig, exp: _Experiment, runs: list) -> dict:
    """The runs (name, seed, horizons, step callback) as one block, each of
    max(horizons) steps and read at each horizon N as a run of N steps
    alone: (name, seed, N) -> (its records, (terminal x, terminal value,
    terminal gradient, total work)), or the message of the numerical error
    that fails it. An error at step k fails the horizons N > k; a block
    meeting one runs again one run at a time, so the error fails its run
    alone. A failed terminal solve fails its own horizon."""
    streams = [_seed_streams(config, seed) for _, seed, _, _ in runs]
    x0 = np.array([x0_rng.dirichlet(np.ones(config.d)) for x0_rng, _ in streams])
    oracle, sample = exp.start([noise_rng for _, noise_rng in streams])
    records: list[list[RunRecord]] = [[] for _ in runs]
    ends: list[dict[int, np.ndarray]] = [{} for _ in runs]  # N -> x after step N - 1

    def observer(rows, step, X):
        k = step[0].k
        objectives = sample(X, rows) if k % config.sample_every == 0 else [None] * len(rows)
        for i, rec, x, objective in zip(rows, step, X, objectives):
            name, seed, horizons, _ = runs[i]
            cum_work = (records[i][-1].cum_work if records[i] else 0.0) + rec.omega
            records[i].append(RunRecord(config.experiment, name, seed, k, rec.delta,
                                        rec.omega, rec.L, rec.A, objective, cum_work))
            if k + 1 in horizons:
                ends[i][k + 1] = x

    error = None
    try:
        fgm_run(oracle, [cb for *_, cb in runs], [max(h) for _, _, h, _ in runs],
                x0, exp.L, config.mu, adaptive=exp.adaptive, observer=observer)
    except _NUMERICAL as exc:
        if len(runs) > 1:  # the error fails its own run alone
            return {key: got for run in runs
                    for key, got in _run_block(config, exp, [run]).items()}
        error = str(exc)  # the horizons the run did not reach fail with it

    out = {}
    for (name, seed, horizons, _), run_records, run_ends in zip(runs, records, ends):
        for N in horizons:
            if N not in run_ends:
                out[name, seed, N] = error
                continue
            try:
                # the lower model of f* reuses the terminal value and gradient
                value, grad = exp.terminal(run_ends[N])
            except _NUMERICAL as exc:
                out[name, seed, N] = str(exc)
                continue
            out[name, seed, N] = (run_records[:N], (run_ends[N], value, grad,
                                                    run_records[N - 1].cum_work))
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    exp = _experiment(config, generate_scenarios(
        config.n, config.d, config.p, DATA_SEED, sigma=config.sigma, mu=config.mu))
    records: list[RunRecord] = []
    summaries: list[SummaryRow] = []
    schedules: dict[str, Schedule] = {}
    failures: list[tuple] = []

    seeds, horizons = sorted(config.seeds), sorted(config.N)
    for delta_ref in config.delta_ref:
        # (name, seed, N) -> what a run of N steps alone gives: (records,
        # terminal), or its failure message
        outcome: dict[tuple, tuple | str] = {}
        runs = []  # (name, seed, the horizons it serves, step callback)
        for name in config.schedules:
            callbacks: dict[int, Callable] = {}  # horizon -> step callback
            for N in horizons:
                try:
                    callbacks[N], sched = _family_schedule(config, name, delta_ref, N, exp)
                except SolverError as exc:
                    # a failed build fails its family's runs, not the sweep
                    outcome.update({(name, seed, N): str(exc) for seed in seeds})
                    continue
                if sched is not None:
                    schedules[f"{name}_N{N}_dref{float(delta_ref)!r}"] = sched
            groups = [((N,), cb) for N, cb in callbacks.items()]
            if callbacks and name not in _HORIZON_BOUND:  # horizon-free: run once, at max N
                groups = [(tuple(callbacks), callbacks[max(callbacks)])]
            runs += [(name, seed, served, cb) for served, cb in groups for seed in seeds]
        # the fixed-step runs of a cell step as one block; an adaptive search
        # runs one run at a time
        for block in ([runs] if runs and not exp.adaptive else [[run] for run in runs]):
            outcome.update(_run_block(config, exp, block))

        for N in horizons:
            # (name, seed) -> (terminal x, value, gradient, total work)
            terminals: dict[tuple, tuple] = {}
            for name in config.schedules:
                for seed in seeds:
                    got = outcome[name, seed, N]
                    if isinstance(got, str):
                        failures.append((name, seed, N, delta_ref, got))
                        continue
                    rows, terminals[name, seed] = got
                    records.extend(rows)

            # terminal primal gaps against a shared lower bound on F*
            fstar = exp.fstar
            if fstar is None and terminals:
                x_best, f_best, g_best, _ = min(terminals.values(), key=lambda t: t[1])
                fstar = estimate_fstar(f_best, g_best, x_best, config.mu)

            for name in config.schedules:
                runs = [terminals[name, seed] for seed in seeds
                        if (name, seed) in terminals]
                gaps = [value - fstar for _, value, _, _ in runs]
                summaries.append(SummaryRow(
                    experiment=config.experiment, schedule=name, mu=config.mu,
                    r=exp.cost.r, N=N, delta_ref=delta_ref,
                    median_gap=statistics.median(gaps) if gaps else math.nan,
                    mean_gap=statistics.fmean(gaps) if gaps else math.nan,
                    total_inner_work=sum((total for *_, total in runs), 0.0)))

    summaries.sort(key=lambda s: (s.N, s.delta_ref, s.schedule))  # summary.csv's order
    return ExperimentResult(records, summaries, schedules, failures)


# ---------------------------------------------------------------------------
# CSV files: every table the package writes passes through ``_write_csv``, and
# ``import_coefficients`` is its one reader
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(out: str | TextIO, header, rows):
    """Write to ``out``, a path or an open text stream, which stays open."""
    if isinstance(out, (str, os.PathLike)):
        with open(out, "w", newline="") as fh:
            return _write_csv(fh, header, rows)
    writer = csv.writer(out)
    writer.writerow(header)
    writer.writerows([_fmt(cell) for cell in row] for row in rows)


def export_schedule(s: Schedule, out: str | TextIO):
    column = "delta" if s.kind == "accuracy" else "omega"
    _write_csv(out, ["k", column], enumerate(s.values))


def import_coefficients(path: str) -> tuple[np.ndarray, np.ndarray]:
    """The a and b columns of a file with header exactly ``k,a,b``; every
    row must have three cells, and k must count 0, 1, 2, ... down the rows."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        found = next(reader, None)
        if found != ["k", "a", "b"]:
            raise HarnessError(f"{path}: unexpected header {found!r}")
        values = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 3:
                raise HarnessError(f"{path}: line {lineno} has {len(row)} cells, not 3")
            if row[0] != str(lineno - 2):
                raise HarnessError(f"{path}: line {lineno}: k must be "
                                   f"{lineno - 2}, got {row[0]!r}")
            try:
                values.append([float(cell) for cell in row[1:]])
            except ValueError as exc:
                raise HarnessError(f"{path}: line {lineno}: {exc}") from exc
    a, b = np.array(values).reshape(len(values), 2).T
    return a, b


def emit_outputs(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write trajectory.csv, summary.csv and one schedule.csv per schedule;
    the columns of the first two are the fields of their record, in order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for name, cls, rows in (("trajectory", RunRecord, result.records),
                            ("summary", SummaryRow, result.summaries)):
        path = os.path.join(out_dir, f"{name}.csv")
        names = cls._fields
        _write_csv(path, names, ([getattr(row, n) for n in names] for row in rows))
        written.append(path)

    for label in sorted(result.schedules):
        path = os.path.join(out_dir, f"schedule_{label}.csv")
        export_schedule(result.schedules[label], path)
        written.append(path)
    return written


# ---------------------------------------------------------------------------
# toy instance
# ---------------------------------------------------------------------------

def toy_instance():
    """The 80-iteration log-squared showcase instance with three cost tiers."""
    a = np.arange(1, 81, dtype=float)
    b = np.empty(80)
    b[:20] = 3.0 / 420.0
    b[20:40] = 2.0 / 420.0
    b[40:] = 8.0 / 420.0
    return accuracy_problem(a, b, 1e-4, 0.0, 2.0, "log_squared")
