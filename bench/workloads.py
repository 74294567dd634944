"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``, does
the timed work in ``run_pass`` and judges the pass outputs in ``evaluate``
(outside the timed region). Package functions are called through their
module attributes, so that the tracer's wrappers see these calls.

The seed of an experiment workload picks the run seeds (starting points and
noise streams); the scenario matrix stays at the harness default
``data_seed``. A new scenario matrix changes the problem's conditioning and
moves the inner work of a hull pass by ~8 %, while new run seeds move it by
about 1 %, so seed-to-seed spread stays below the benchmark's bounds.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field, replace

import numpy as np

from tunable_oracle import certificates, harness, schedule_solver

import checks

DEFAULT_SEED = 0       # the seed the reference outputs were recorded on
HELD_OUT_SEED = 7919   # kept for verifying claims; not used while tuning

SOLVE_N = 100_000
SOLVE_DELTA_REF = 1e-3
SOLVE_ITEMS = ("power", "log", "logsq", "work", "toy")
_ACCURACY_KINDS = {"power": ("power", 1.0), "log": ("logarithmic", 0.0),
                   "logsq": ("log_squared", 0.0)}


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list
    signature: str     # equal on every pass of one run
    record: list       # JSON form compared against the reference
    inner_iters: int = 0
    item_s: dict = field(default_factory=dict)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# solve_sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SolveJob:
    item: str
    problem: object
    work: bool = False


class SolveSweep:
    """Direct schedule solves at N = 1e5, one pass = every job once."""

    name = "solve_sweep"
    large_vectors = True   # calibration kernel mix, see calibration.py

    def setup(self, seed: int) -> list:
        certs = certificates.fixed_step_certificates(SOLVE_N, 1.0, 0.0)
        a_fgm, b_fgm = certificates.impact_coefficients_fgm(certs)
        rng = np.random.default_rng([seed, SOLVE_N])
        a_rnd = np.exp(rng.uniform(-3.0, 3.0, SOLVE_N))
        b_rnd = np.exp(rng.uniform(-3.0, 3.0, SOLVE_N))
        jobs = []
        for item, (kind, r) in _ACCURACY_KINDS.items():
            # FGM row with m = 0: the loose bound saturates
            jobs.append(SolveJob(item, schedule_solver.accuracy_problem(
                a_fgm, b_fgm, SOLVE_DELTA_REF, 0.0, 100.0, kind, r)))
            # log-uniform coefficients with m = 0.1: the tight bound saturates
            jobs.append(SolveJob(item, schedule_solver.accuracy_problem(
                a_rnd, b_rnd, SOLVE_DELTA_REF, 0.1, 100.0, kind, r)))
        jobs.append(SolveJob("work", schedule_solver.WorkProblem(
            a_rnd, b_rnd, float(SOLVE_N), 0.1, 2.2, 1.0), work=True))
        jobs.append(SolveJob("toy", harness.toy_instance()))
        # warm-up: every solve path once on a short prefix
        for job in jobs:
            p = job.problem
            if job.work:
                small = replace(p, a=p.a[:1000], b=p.b[:1000], omega_bar=1000.0)
                schedule_solver.solve_work(small)
            else:
                schedule_solver.solve_accuracy(replace(p, a=p.a[:1000], b=p.b[:1000]))
        return jobs

    def run_pass(self, jobs: list):
        item_s = dict.fromkeys(SOLVE_ITEMS, 0.0)
        outs = []
        clock = time.perf_counter
        for job in jobs:
            solve = schedule_solver.solve_work if job.work else schedule_solver.solve_accuracy
            t0 = clock()
            out = solve(job.problem)
            item_s[job.item] += clock() - t0
            outs.append(out)
        return outs, item_s

    def evaluate(self, jobs: list, raw) -> Verdict:
        outs, item_s = raw
        failed, problems, record, parts = 0, [], [], []
        for job, (sched, cert) in zip(jobs, outs):
            check = checks.check_work_schedule if job.work else checks.check_accuracy_schedule
            found = check(job.problem, sched.values)
            failed += bool(found)
            problems += [f"{job.item}: {msg}" for msg in found]
            record.append({"item": job.item, "n_plus": cert.n_plus,
                           "n_minus": cert.n_minus,
                           "objective": float(job.problem.a @ sched.values)})
            parts += [sched.values.tobytes(), cert.n_plus, cert.n_minus]
        return Verdict(len(jobs), failed, problems, _digest(parts), record,
                       item_s=item_s)

    def compare_reference(self, verdict: Verdict, ref: list) -> list[str]:
        problems = []
        if [r["item"] for r in ref] != [r["item"] for r in verdict.record]:
            return ["solve jobs differ from the reference"]
        for got, want in zip(verdict.record, ref):
            if (got["n_plus"], got["n_minus"]) != (want["n_plus"], want["n_minus"]):
                problems.append(f"{got['item']}: partition {got['n_plus']}/"
                                f"{got['n_minus']} vs {want['n_plus']}/{want['n_minus']}")
            if not checks.close(got["objective"], want["objective"], 1e-9):
                problems.append(f"{got['item']}: objective {got['objective']!r} "
                                f"vs {want['objective']!r}")
        return problems


# ---------------------------------------------------------------------------
# experiment workloads
# ---------------------------------------------------------------------------

class Experiment:
    """One ``run_experiment`` call per pass on a fixed reduced config."""

    large_vectors = False

    def __init__(self, name: str, base, seeds_per_pass: int, warm_N: int):
        self.name = name
        self.base = base
        self.seeds_per_pass = seeds_per_pass
        self.warm_N = warm_N

    def config(self, seed: int):
        k = self.seeds_per_pass
        return replace(self.base, seeds=tuple(range(k * seed, k * seed + k)))

    def setup(self, seed: int):
        cfg = self.config(seed)
        # warm-up: every schedule family once on a short horizon
        harness.run_experiment(replace(cfg, N=(self.warm_N,), seeds=cfg.seeds[:1]))
        return cfg

    def run_pass(self, cfg):
        return harness.run_experiment(cfg)

    def evaluate(self, cfg, result) -> Verdict:
        runs = (len(cfg.schedules) * len(cfg.seeds) * len(cfg.N)
                * len(cfg.delta_ref))
        problems = checks.check_experiment(result)
        failed = runs if problems else 0
        lines = checks.summary_lines(result)
        inner = 0
        if cfg.experiment in (2, 3):  # experiment 1 charges modeled, not FISTA, work
            inner = int(sum(row.total_inner_work for row in result.summaries))
        return Verdict(runs, failed, problems, _digest(lines),
                       checks.experiment_reference(result), inner_iters=inner)

    def compare_reference(self, verdict: Verdict, ref: list) -> list[str]:
        return checks.compare_experiment_reference(verdict.record, ref)


def _softmax_fixed():
    cfg = replace(harness.default_config(1), mu=0.0, N=(500, 2000),
                  schedules=("tunable", "constant"))
    return Experiment("softmax_fixed", cfg, 5, 20)


def _hull_fixed():
    # the experiment-2 acceptance-gate config at d = 200, sampling off
    cfg = replace(harness.default_config(2), M=10.0, N=(500, 2000),
                  sample_every=10 ** 9)
    return Experiment("hull_fixed", cfg, 3, 20)


def _hull_adaptive():
    # one seed per pass keeps a pass near 8 s, so that a 25 s run holds at
    # least two
    cfg = replace(harness.default_config(3), N=(500,))
    return Experiment("hull_adaptive", cfg, 1, 60)


WORKLOADS = {w.name: w for w in (SolveSweep(), _softmax_fixed(), _hull_fixed(),
                                 _hull_adaptive())}
