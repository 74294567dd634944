"""Experiment harness: builds budget-matched inexactness schedules, runs the
inexact fast gradient method over seeded instances, and aggregates the
trajectories into deterministic CSV outputs. Every CSV file the package
reads or writes goes through the one reader and one writer of this module.

Three experiments are supported:

1. softmax-smoothed robust objective with a synthetic tunable-noise oracle,
   fixed stepsize;
2. robust optimization over the convex hull of scenarios with a FISTA inner
   solver as the costly oracle, fixed stepsize;
3. the hull problem with an adaptive stepsize and an online schedule extended
   from a short bootstrap solve.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from dataclasses import dataclass, fields, replace

import numpy as np

from .certificates import (
    fixed_step_certificates,
    impact_coefficients_fgm,
    next_certificate,
)
from .cost_models import LOGARITHMIC, POWER
from .fgm import FgmError, fgm_run, project_simplex
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


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: int
    d: int
    n: int
    p: float
    sigma: float = 1e-3
    mu: float = 0.0
    alpha: float = 0.0          # gradient-noise scale, experiment 1 only
    r: float = -1.0             # cost exponent; negative = pick via kappa_hat
    delta_ref: tuple = (1e-3,)
    N: tuple = (500,)
    M: float = 100.0
    m: float = 0.0
    N_r: int = 0                # online bootstrap length, experiment 3 only
    seeds: tuple = (0, 1, 2)
    schedules: tuple = ("tunable", "constant")
    sample_every: int = 10
    ref_iterations: int = 0     # 0 = 4 * max(N)

    def __post_init__(self):
        if self.experiment not in (1, 2, 3):
            raise HarnessError(f"unknown experiment {self.experiment}")
        if min(self.d, self.n) < 1 or self.p <= 0.0:
            raise HarnessError("need d, n >= 1 and p > 0")
        # NaN passes the `<=` checks; m and M (which may be +inf) are
        # checked with the bounds, which NaN fails
        for name in ("p", "sigma", "mu", "alpha", "r"):
            if not math.isfinite(getattr(self, name)):
                raise HarnessError(f"{name} must be finite")
        if self.experiment == 1:
            if self.alpha <= 0.0:
                raise HarnessError("experiment 1 requires a noise scale alpha > 0")
        elif self.alpha != 0.0:
            raise HarnessError("alpha is admissible for experiment 1 only")
        if self.experiment == 3:
            if self.N_r < 1:
                raise HarnessError("experiment 3 requires a bootstrap length N_r >= 1")
        elif self.N_r != 0:
            raise HarnessError("N_r is admissible for experiment 3 only")
        if self.ref_iterations < 0 or (self.ref_iterations and self.experiment != 1):
            raise HarnessError("ref_iterations must be >= 0, and 0 outside experiment 1")
        for name in ("seeds", "N", "delta_ref", "schedules"):
            # a repeated entry would repeat its runs and double-count them
            if len(set(getattr(self, name))) != len(getattr(self, name)):
                raise HarnessError(f"{name} lists an entry twice")
        if not self.delta_ref or not all(0.0 < v < math.inf for v in self.delta_ref):
            raise HarnessError("delta_ref values must be finite and > 0")
        if self.experiment != 1 and min(self.delta_ref) <= ORACLE_FLOOR:
            # the solved box starts at the floor, which needs m = floor/dref < 1
            raise HarnessError(f"delta_ref values must exceed the oracle floor "
                               f"{ORACLE_FLOOR:g} in experiments 2 and 3")
        if not self.N or any(v < 1 for v in self.N):
            raise HarnessError("N values must be >= 1")
        if not (0.0 <= self.m < 1.0 < self.M):
            raise HarnessError("bounds must satisfy 0 <= m < 1 < M")
        if not self.seeds or min(self.seeds) < 0:
            raise HarnessError("need at least one seed, and seeds >= 0")
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


def default_config(experiment: int) -> ExperimentConfig:
    """Desk-scale defaults; a config file can override every field but the
    experiment id."""
    if experiment == 1:
        return ExperimentConfig(
            experiment=1, d=30, n=100, p=10.0, mu=0.0,
            alpha=100.0, r=1.0, delta_ref=(1e-3,), N=(500,),
            seeds=(0, 1, 2, 3, 4), schedules=("tunable", "constant"))
    if experiment == 2:
        return ExperimentConfig(
            experiment=2, d=200, n=100, p=0.2, sigma=1e-3, mu=0.1,
            r=-1.0, delta_ref=(1e-3,), N=(500,),
            seeds=(0, 1, 2), schedules=("tunable", "constant"))
    if experiment == 3:
        return ExperimentConfig(
            experiment=3, d=100, n=50, p=0.2, sigma=3e-3, mu=0.1,
            r=0.0, delta_ref=(1e-4,), N=(2000,), m=0.0, N_r=50,
            seeds=(0, 1, 2),
            schedules=("online_tunable", "constant", "poly3", "linear"))
    raise HarnessError(f"unknown experiment {experiment}")


# ---------------------------------------------------------------------------
# config file parsing (line-oriented ``key = value``)
# ---------------------------------------------------------------------------

_LIST_FIELDS = {"delta_ref": float, "N": int, "seeds": int, "schedules": str}
_INT_FIELDS = {"d", "n", "N_r", "sample_every", "ref_iterations"}


def _parse_value(key: str, raw: str):
    if key in _LIST_FIELDS:
        elem = _LIST_FIELDS[key]
        return tuple(elem(tok.strip()) for tok in raw.split(",") if tok.strip())
    if key in _INT_FIELDS:
        return int(raw)
    if key == "r" and raw.strip() == "auto":
        return -1.0
    return float(raw)


def parse_config_text(text: str) -> dict:
    """Parse ``key = value`` lines; blank lines and #-comments are skipped."""
    # the experiment id comes from the caller, not from the file
    known = {f.name for f in fields(ExperimentConfig)} - {"experiment"}
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


def load_config(path: str, experiment: int,
                seeds: tuple | None = None) -> ExperimentConfig:
    with open(path) as fh:
        overrides = parse_config_text(fh.read())
    if seeds is not None:
        overrides["seeds"] = tuple(seeds)
    return replace(default_config(experiment), **overrides)


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------

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
        if mu <= 0.0:
            raise HarnessError("the linear baseline degenerates when mu = 0")
        base = 1.0 - math.sqrt(mu / L)
        if not (0.0 < base < 1.0):
            raise HarnessError("linear baseline requires 0 < 1 - sqrt(mu/L) < 1")
        values = delta_ref * base ** -k
    else:
        raise HarnessError(f"unknown baseline {name!r}")
    return Schedule(values, "accuracy")


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRecord:
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


@dataclass(frozen=True)
class SummaryRow:
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

def _resolve_r(config: ExperimentConfig, data: ScenarioData) -> float:
    if config.r >= 0.0:
        return config.r
    # Linearly converging inner solver (kappa_hat > 0) matches the r = 0 cost
    # shape; the sublinear regime matches the square-root shape.
    return 0.0 if kappa_hat(data) > 0.0 else 0.5

def _fixed_L(config: ExperimentConfig, data: ScenarioData) -> float:
    if config.experiment == 1:
        return data.lam_max + config.mu
    if config.experiment == 2:
        return 2.0 / config.sigma + config.mu
    return 1.0 / config.sigma + config.mu  # experiment 3 validity ceiling


def _seed_streams(config: ExperimentConfig, seed: int):
    """Per-seed RNG streams shared by every schedule family (paired runs)."""
    root = np.random.SeedSequence([config.experiment, DATA_SEED, seed])
    x0_ss, noise_ss = root.spawn(2)
    return np.random.default_rng(x0_ss), np.random.default_rng(noise_ss)


def _lower_model(f: float, g: np.ndarray, x_hat: np.ndarray, mu: float) -> float:
    """Lower bound on the optimum over the simplex of a mu-strongly convex
    objective with value f and gradient g at x_hat: the minimum of its
    quadratic (mu > 0) or linear (mu = 0) lower model."""
    if mu > 0.0:
        x_m = project_simplex(x_hat - g / mu)
        diff = x_m - x_hat
        return f + float(g @ diff) + 0.5 * mu * float(diff @ diff)
    return f + float(np.min(g)) - float(g @ x_hat)


def estimate_fstar(data: ScenarioData, x_hat: np.ndarray) -> float:
    """Lower bound on the hull optimum from the lower model at x_hat."""
    reply = hull_oracle(data, x_hat, FSTAR_PRECISION, InnerState())
    return _lower_model(reply.value, reply.gradient, x_hat, data.mu)


def _reference_fstar_exp1(config: ExperimentConfig, data: ScenarioData,
                          L: float, n_ref: int) -> float:
    """Noise-free long run, then the strongly-convex lower model."""
    rng = np.random.default_rng(0)  # delta = 0: the stream is never drawn from

    def oracle(x, _delta):
        return noisy_oracle(data, x, 0.0, config.alpha, rng)

    # once A_k exceeds ~1e18 the bound R^2/A_k is below double resolution of
    # the objective; longer runs only risk certificate overflow
    A, k = 0.0, 0
    while k < n_ref and A < 1e18:
        A = next_certificate(A, L, config.mu)
        k += 1
    n_ref = k

    x0 = np.full(config.d, 1.0 / config.d)
    x_hat, _ = fgm_run(oracle, lambda k, A: 0.0, n_ref, x0, L, config.mu)
    f, g = softmax_value_grad(data, x_hat)
    return _lower_model(f, g, x_hat, data.mu)


def _tunable_values(config: ExperimentConfig, a: np.ndarray, delta_ref: float,
                    r: float) -> Schedule:
    """The schedule at the modeled cost of constant δ̄ (budget-matched).

    The FISTA oracle of experiments 2 and 3 cannot certify targets below
    ORACLE_FLOOR, so there the solved box starts at the floor.
    """
    kind = POWER if r > 0.0 else LOGARITHMIC
    m = config.m
    if config.experiment != 1:
        m = max(m, ORACLE_FLOOR / delta_ref)
    problem = accuracy_problem(a, np.ones_like(a), delta_ref, m, config.M, kind, r)
    return solve_accuracy(problem)[0]


def _family_schedule(config: ExperimentConfig, name: str, delta_ref: float,
                     N: int, L: float, r: float):
    """The step callback ``(k, A_next) -> delta`` of one family and the
    schedule to emit, None for the online family; a failed solve raises
    SolverError."""
    if name == "online_tunable":
        # bootstrap values for k < N_r, then the online extension rule
        a, _ = impact_coefficients_fgm(fixed_step_certificates(config.N_r, L, config.mu))
        boot = _tunable_values(config, a, delta_ref, r).values
        last = (float(a[-1]), 1.0, float(boot[-1]))
        box = (max(config.m * delta_ref, ORACLE_FLOOR), config.M * delta_ref)

        def online(k, A_next):
            if k < config.N_r:
                return boot[k]
            return online_extend_accuracy(last, (A_next, 1.0), r, box)
        return online, None
    if name == "tunable":
        a, _ = impact_coefficients_fgm(fixed_step_certificates(N, L, config.mu))
        sched = _tunable_values(config, a, delta_ref, r)
    else:
        sched = baseline_schedule(name, delta_ref, config.mu, L, N)
        if config.experiment != 1:
            # The FISTA oracle cannot certify gaps near float resolution, and
            # the cost model is only defined up to M * delta_ref (log costs
            # need delta < 1); clip baseline requests into the modeled domain.
            sched = Schedule(np.clip(sched.values, ORACLE_FLOOR,
                                     config.M * delta_ref), sched.kind)
    values = sched.values
    return (lambda k, _A_next: values[k]), sched


def _objective(config: ExperimentConfig, data: ScenarioData, x: np.ndarray,
               precision: float, state: InnerState | None = None) -> float:
    """The objective at x; hull values are certified to ``precision``."""
    if config.experiment == 1:
        return softmax_value_grad(data, x)[0]
    return hull_value(data, x, precision, state=state)


def _run_one(config: ExperimentConfig, data: ScenarioData, name: str,
             seed: int, N: int, L: float, r: float, schedule_cb):
    """One (schedule, seed) run; returns (records, terminal x, terminal
    objective value, total work)."""
    x0_rng, noise_rng = _seed_streams(config, seed)
    x0 = x0_rng.dirichlet(np.ones(config.d))

    state = InnerState()  # the hull oracle's warm start; unused in experiment 1
    if config.experiment == 1:
        def oracle(x, delta):
            return noisy_oracle(data, x, delta, config.alpha, noise_rng,
                                r=max(r, 0.0))
    else:
        def oracle(x, delta):
            return hull_oracle(data, x, delta, state)

    samples: dict[int, float] = {}

    def observer(k, x):
        if k % config.sample_every == 0:
            samples[k] = _objective(config, data, x, SAMPLE_PRECISION, state)

    x_final, traj = fgm_run(oracle, schedule_cb, N, x0, L, config.mu,
                            adaptive=config.experiment == 3, observer=observer)
    # the terminal value is a cold solve, independent of the run's warm start
    value = _objective(config, data, x_final, FSTAR_PRECISION)

    records = []
    cum_work = 0.0
    for rec in traj:
        cum_work += rec.omega
        records.append(RunRecord(
            experiment=config.experiment, schedule=name, seed=seed, k=rec.k,
            delta=rec.delta, omega=rec.omega, L=rec.L, A=rec.A,
            objective=samples.get(rec.k), cum_work=cum_work))
    return records, x_final, value, cum_work


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    data = generate_scenarios(config.n, config.d, config.p, DATA_SEED,
                              sigma=config.sigma, mu=config.mu)
    r = _resolve_r(config, data)
    solved = {"tunable", "online_tunable"}.intersection(config.schedules)
    if r <= 0.0 and solved and config.M * max(config.delta_ref) >= 1.0:
        # the log cost is defined for delta < 1 only: fail before any run
        # rather than abort the sweep in the middle
        raise HarnessError(f"the logarithmic cost of {sorted(solved)} needs "
                           f"M*delta_ref < 1, got M = {config.M:g} and "
                           f"delta_ref = {max(config.delta_ref):g}")
    L = _fixed_L(config, data)

    records: list[RunRecord] = []
    summaries: list[SummaryRow] = []
    schedules: dict[str, Schedule] = {}
    failures: list[tuple] = []

    if config.experiment == 1:
        # the noise-free reference depends on max(N) only, so it runs once
        fstar = _reference_fstar_exp1(config, data, L,
                                      config.ref_iterations or 4 * max(config.N))

    for delta_ref in config.delta_ref:
        for N in sorted(config.N):
            # (name, seed) -> (terminal x, terminal objective value, total work)
            terminals: dict[tuple, tuple] = {}
            for name in config.schedules:
                try:
                    schedule_cb, sched = _family_schedule(config, name, delta_ref, N, L, r)
                except SolverError as exc:
                    # a failed solve fails its family's runs, not the sweep
                    failures += [(name, seed, N, delta_ref, str(exc))
                                 for seed in sorted(config.seeds)]
                    continue
                if sched is not None:
                    schedules[f"{name}_N{N}_dref{delta_ref:g}"] = sched
                for seed in sorted(config.seeds):
                    try:
                        rows, x_final, value, total = _run_one(
                            config, data, name, seed, N, L, r, schedule_cb)
                    except (OracleError, FgmError, SolverError) as exc:
                        # a numerical failure must not stop the sweep; a
                        # programming error still raises
                        failures.append((name, seed, N, delta_ref, str(exc)))
                        continue
                    records.extend(rows)
                    terminals[(name, seed)] = (x_final, value, total)

            # terminal primal gaps against a shared lower bound on F*
            if config.experiment != 1 and terminals:
                best = min(terminals, key=lambda key: terminals[key][1])
                fstar = estimate_fstar(data, terminals[best][0])

            for name in config.schedules:
                runs = [terminals[name, seed] for seed in sorted(config.seeds)
                        if (name, seed) in terminals]
                gaps = [value - fstar for _, value, _ in runs]
                summaries.append(SummaryRow(
                    experiment=config.experiment, schedule=name, mu=config.mu,
                    r=r, N=N, delta_ref=delta_ref,
                    median_gap=statistics.median(gaps) if gaps else math.nan,
                    mean_gap=statistics.fmean(gaps) if gaps else math.nan,
                    total_inner_work=sum((total for *_, total in runs), 0.0)))

    return ExperimentResult(records, summaries, schedules, failures)


# ---------------------------------------------------------------------------
# CSV files: every file the package reads or writes passes through these two
# ---------------------------------------------------------------------------

def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_csv(path: str, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_fmt(cell) for cell in row] for row in rows)


def _read_csv(path: str, *headers) -> tuple[list, np.ndarray]:
    """The header, which must equal one of ``headers``, and the float columns
    after ``k`` as a (rows x columns) array; every row must have the header's
    width."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header not in headers:
            raise HarnessError(f"{path}: unexpected header {header!r}")
        rows = list(reader)
    for lineno, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise HarnessError(f"{path}: line {lineno} has {len(row)} cells, "
                               f"not {len(header)}")
    values = [[float(cell) for cell in row[1:]] for row in rows]
    return header, np.array(values).reshape(len(rows), len(header) - 1)


def export_schedule(s: Schedule, path: str):
    column = "delta" if s.kind == "accuracy" else "omega"
    _write_csv(path, ["k", column], enumerate(s.values))


def import_schedule(path: str) -> Schedule:
    header, values = _read_csv(path, ["k", "delta"], ["k", "omega"])
    return Schedule(values[:, 0], "accuracy" if header[1] == "delta" else "work")


def export_coefficients(a, b, path: str):
    a = np.asarray(a, float)
    _write_csv(path, ["k", "a", "b"],
               zip(range(a.size), a, np.asarray(b, float), strict=True))


def import_coefficients(path: str) -> tuple[np.ndarray, np.ndarray]:
    _, values = _read_csv(path, ["k", "a", "b"])
    return values[:, 0], values[:, 1]


def emit_outputs(result: ExperimentResult, out_dir: str) -> list[str]:
    """Write trajectory.csv, summary.csv and one schedule.csv per schedule;
    the columns of the first two are the fields of their record, in order."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    summaries = sorted(result.summaries, key=lambda s: (s.N, s.delta_ref, s.schedule))
    for name, cls, rows in (("trajectory", RunRecord, result.records),
                            ("summary", SummaryRow, summaries)):
        path = os.path.join(out_dir, f"{name}.csv")
        names = [f.name for f in fields(cls)]
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
