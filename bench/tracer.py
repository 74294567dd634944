"""Per-layer tracer for the benchmark.

The package modules bind their collaborators with ``from .x import y``, so a
function has one name per importing module. The tracer swaps a timing
wrapper in at each of those import sites (``SITES``) and puts the originals
back on exit. Calls are aggregated into per-key counters (calls, inclusive
seconds, self seconds) instead of one span per call: the deep hull workload
makes ~10^6 wrapped calls per pass.

A key is ``<layer>.<function>``; the layer is the package module the time is
charged to. Self time is a span's duration minus the durations of the
wrapped spans it directly encloses, so the self times of all keys plus the
root span's self time add up to the root span's duration.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import Counter

LAYERS = ("cost_models", "schedule_solver", "certificates", "fgm", "problems",
          "harness", "bench")

ROOT_KEY = "bench.pass"

# (module, attribute, key). The first four sites are the benchmark's own call
# sites; the rest are the package's internal import sites.
SITES = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("schedule_solver", "solve_accuracy", "schedule_solver.solve_accuracy"),
    ("schedule_solver", "solve_work", "schedule_solver.solve_work"),
    ("certificates", "fixed_step_certificates", "certificates.fixed_step_certificates"),
    ("harness", "fgm_run", "fgm.fgm_run"),
    ("harness", "hull_oracle", "problems.hull_oracle"),
    ("harness", "hull_value", "problems.hull_value"),
    ("harness", "estimate_fstar", "problems.estimate_fstar"),
    ("harness", "solve_accuracy", "schedule_solver.solve_accuracy"),
    ("harness", "fixed_step_certificates", "certificates.fixed_step_certificates"),
    ("harness", "next_certificate", "certificates.next_certificate"),
    ("harness", "generate_scenarios", "problems.generate_scenarios"),
    ("harness", "noisy_oracle", "problems.noisy_oracle"),
    ("harness", "softmax_value_grad", "problems.softmax_value_grad"),
    ("harness", "project_simplex", "fgm.project_simplex"),
    ("harness", "online_extend_accuracy", "schedule_solver.online_extend_accuracy"),
    ("problems", "fista_inner", "problems.fista_inner"),
    ("problems", "inner_q_value_grad", "problems.inner_q_value_grad"),
    # the inner (FISTA) projection is charged to the layer that calls it
    ("problems", "project_simplex", "problems.project_simplex"),
    ("problems", "hull_oracle", "problems.hull_oracle"),
    ("problems", "softmax_value_grad", "problems.softmax_value_grad"),
    ("fgm", "project_simplex", "fgm.project_simplex"),
    ("fgm", "next_certificate", "certificates.next_certificate"),
    ("schedule_solver", "h_eval", "cost_models.h_eval"),
    ("cost_models", "lambert_w0", "cost_models.lambert_w0"),
    ("certificates", "next_certificate", "certificates.next_certificate"),
)


class Tracer:
    """Counters per key; ``install``/``restore`` swap the wrappers in and out.

    ``clock`` is injectable so that tests can drive the self-time arithmetic
    with a fake clock.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, list] = {}   # key -> [calls, inclusive_s, self_s]
        self._stack = [0.0]  # child-time accumulators of the open spans
        self._saved: list[tuple] = []
        # work counters read from return values
        self.inner_iters: Counter = Counter()  # fista_inner work -> calls
        self.inner_exhausted = 0
        self.fgm_steps = 0
        self.fgm_retries = 0
        self.fstar_ref_runs = 0
        self.fstar_ref_s = 0.0
        self.harness_runs = 0
        self.harness_failed_runs = 0
        self.n_plus = 0
        self.n_minus = 0
        self.solved: list[tuple] = []  # (problem, schedule) awaiting a residual

    def wrap(self, key: str, fn, on_return=None):
        """Timing wrapper around ``fn`` that charges its calls to ``key``."""
        stat = self.stats.setdefault(key, [0, 0.0, 0.0])
        stack = self._stack
        clock = self.clock

        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
            if on_return is not None:
                on_return(args, out, dt)
            return out

        timed.__wrapped__ = fn
        return timed

    # -- return-value hooks ------------------------------------------------

    def _on_fista(self, _args, result, _dt):
        self.inner_iters[result.work] += 1
        if not result.converged:
            self.inner_exhausted += 1

    def _on_fgm_run(self, _args, out, dt):
        trajectory = out[1]
        self.fgm_steps += len(trajectory)
        self.fgm_retries += sum(rec.retries for rec in trajectory)
        # the reference f* runs are the ones that request an exact oracle
        if trajectory and all(rec.delta == 0.0 for rec in trajectory):
            self.fstar_ref_runs += 1
            self.fstar_ref_s += dt

    def _on_solve_accuracy(self, args, out, _dt):
        schedule, cert = out
        self.n_plus += cert.n_plus
        self.n_minus += cert.n_minus
        self.solved.append((args[0], schedule))

    def _on_run_experiment(self, args, result, _dt):
        config = args[0]
        self.harness_runs += (len(config.schedules) * len(config.seeds)
                              * len(config.N) * len(config.delta_ref))
        self.harness_failed_runs += len(result.failures)

    _HOOKS = {
        "problems.fista_inner": _on_fista,
        "fgm.fgm_run": _on_fgm_run,
        "schedule_solver.solve_accuracy": _on_solve_accuracy,
        "harness.run_experiment": _on_run_experiment,
    }

    # -- installation ------------------------------------------------------

    def install(self):
        for module_name, attr, key in SITES:
            module = importlib.import_module(f"tunable_oracle.{module_name}")
            original = getattr(module, attr)
            hook = self._HOOKS.get(key)
            bound = hook.__get__(self) if hook is not None else None
            setattr(module, attr, self.wrap(key, original, bound))
            self._saved.append((module, attr, original))
        return self

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- read-out ----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0, 0.0, 0.0])[0]

    def inclusive_s(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[1]

    def self_s(self, key: str) -> float:
        return self.stats.get(key, [0, 0.0, 0.0])[2]

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for key, s in self.stats.items()
                   if key.split(".", 1)[0] == layer)


def _percentile(counts: Counter, q: float) -> float:
    """Lower q-quantile of a value -> multiplicity table (0 when empty)."""
    total = sum(counts.values())
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for value in sorted(counts):
        seen += counts[value]
        if seen >= rank:
            return float(value)
    return float(max(counts))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name -> (unit, better); the per-layer half of BENCHMARK.json
PER_LAYER = {
    # measured on the untraced passes of the traced run
    "wall_s": ("s", "lower"),
    "calibration_s": ("s", "lower"),
    "solve_s.power": ("s", "lower"),
    "solve_s.log": ("s", "lower"),
    "solve_s.logsq": ("s", "lower"),
    "solve_s.work": ("s", "lower"),
    "solve_s.toy": ("s", "lower"),
    "inner_iters": ("count", "lower"),
    "failed_share": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_share": ("ratio", "lower"),
    "trace.layer_sum_error": ("ratio", "lower"),
    # layer self times per traced pass
    "cost_models.self_s": ("s", "lower"),
    "schedule_solver.self_s": ("s", "lower"),
    "certificates.self_s": ("s", "lower"),
    "fgm.self_s": ("s", "lower"),
    "problems.self_s": ("s", "lower"),
    "harness.self_s": ("s", "lower"),
    "bench.self_s": ("s", "lower"),
    "cost_models.lambert_w0.calls": ("count", "lower"),
    "cost_models.lambert_w0.s": ("s", "lower"),
    "cost_models.h_eval.calls": ("count", "lower"),
    "cost_models.h_eval.s": ("s", "lower"),
    "schedule_solver.solve_accuracy.calls": ("count", "lower"),
    "schedule_solver.solve_accuracy.self_s": ("s", "lower"),
    "schedule_solver.solve_work.s": ("s", "lower"),
    "schedule_solver.budget_probes_per_solve": ("count", "lower"),
    "schedule_solver.n_plus": ("count", "lower"),
    "schedule_solver.n_minus": ("count", "lower"),
    "schedule_solver.budget_rel_residual.max": ("ratio", "lower"),
    "schedule_solver.online_extend_accuracy.calls": ("count", "lower"),
    "schedule_solver.online_extend_accuracy.s": ("s", "lower"),
    "certificates.next_certificate.calls": ("count", "lower"),
    "certificates.next_certificate.s": ("s", "lower"),
    "certificates.fixed_step_certificates.s": ("s", "lower"),
    "fgm.fgm_run.calls": ("count", "lower"),
    "fgm.steps": ("count", "lower"),
    "fgm.step_self_us": ("us", "lower"),
    "fgm.project_simplex.calls": ("count", "lower"),
    "fgm.project_simplex.us_per_call": ("us", "lower"),
    "fgm.ls_retries": ("count", "lower"),
    "fgm.accept_ratio": ("ratio", "higher"),
    "problems.hull_oracle.calls": ("count", "lower"),
    "problems.hull_oracle.self_s": ("s", "lower"),
    "problems.fista_inner.calls": ("count", "lower"),
    "problems.fista_inner.iters": ("count", "lower"),
    "problems.fista_inner.self_s": ("s", "lower"),
    "problems.fista_inner.iters_p50": ("count", "lower"),
    "problems.fista_inner.iters_p90": ("count", "lower"),
    "problems.fista_inner.zero_iter_share": ("ratio", "higher"),
    "problems.fista_inner.exhausted": ("count", "lower"),
    "problems.inner_q_value_grad.calls": ("count", "lower"),
    "problems.inner_q_value_grad.us_per_call": ("us", "lower"),
    "problems.inner_q_value_grad.calls_per_iter": ("ratio", "lower"),
    "problems.project_simplex.calls": ("count", "lower"),
    "problems.project_simplex.us_per_call": ("us", "lower"),
    "problems.hull_value.calls": ("count", "lower"),
    "problems.hull_value.s": ("s", "lower"),
    "problems.estimate_fstar.s": ("s", "lower"),
    "problems.softmax_value_grad.calls": ("count", "lower"),
    "problems.softmax_value_grad.us_per_call": ("us", "lower"),
    "problems.noisy_oracle.calls": ("count", "lower"),
    "problems.noisy_oracle.s": ("s", "lower"),
    "problems.generate_scenarios.s": ("s", "lower"),
    "harness.run_experiment.s": ("s", "lower"),
    "harness.runs": ("count", "lower"),
    "harness.failed_runs": ("count", "lower"),
    "harness.fstar_ref.runs": ("count", "lower"),
    "harness.fstar_ref.s": ("s", "lower"),
    # one traced set-up, not divided by the pass count
    "setup.traced_s": ("s", "lower"),
    "setup.certificates.fixed_step_certificates.s": ("s", "lower"),
    "setup.problems.generate_scenarios.s": ("s", "lower"),
    "setup.harness.run_experiment.s": ("s", "lower"),
}


def layer_metrics(tr: Tracer, passes: int, residual_max: float) -> dict:
    """Per-pass layer metrics of a tracer that ran ``passes`` traced passes."""
    per = 1.0 / max(passes, 1)
    out = {f"{layer}.self_s": tr.layer_self_s(layer) * per for layer in LAYERS}
    iters = sum(work * n for work, n in tr.inner_iters.items())
    fista_calls = tr.calls("problems.fista_inner")
    solves = tr.calls("schedule_solver.solve_accuracy")
    steps = tr.fgm_steps
    out.update({
        "cost_models.lambert_w0.calls": tr.calls("cost_models.lambert_w0") * per,
        "cost_models.lambert_w0.s": tr.inclusive_s("cost_models.lambert_w0") * per,
        "cost_models.h_eval.calls": tr.calls("cost_models.h_eval") * per,
        "cost_models.h_eval.s": tr.inclusive_s("cost_models.h_eval") * per,
        "schedule_solver.solve_accuracy.calls": solves * per,
        "schedule_solver.solve_accuracy.self_s":
            tr.self_s("schedule_solver.solve_accuracy") * per,
        "schedule_solver.solve_work.s": tr.inclusive_s("schedule_solver.solve_work") * per,
        "schedule_solver.budget_probes_per_solve":
            _ratio(tr.calls("cost_models.h_eval"), solves),
        "schedule_solver.n_plus": tr.n_plus * per,
        "schedule_solver.n_minus": tr.n_minus * per,
        "schedule_solver.budget_rel_residual.max": residual_max,
        "schedule_solver.online_extend_accuracy.calls":
            tr.calls("schedule_solver.online_extend_accuracy") * per,
        "schedule_solver.online_extend_accuracy.s":
            tr.inclusive_s("schedule_solver.online_extend_accuracy") * per,
        "certificates.next_certificate.calls":
            tr.calls("certificates.next_certificate") * per,
        "certificates.next_certificate.s":
            tr.inclusive_s("certificates.next_certificate") * per,
        "certificates.fixed_step_certificates.s":
            tr.inclusive_s("certificates.fixed_step_certificates") * per,
        "fgm.fgm_run.calls": tr.calls("fgm.fgm_run") * per,
        "fgm.steps": steps * per,
        "fgm.step_self_us": 1e6 * _ratio(tr.self_s("fgm.fgm_run"), steps),
        "fgm.project_simplex.calls": tr.calls("fgm.project_simplex") * per,
        "fgm.project_simplex.us_per_call":
            1e6 * _ratio(tr.inclusive_s("fgm.project_simplex"),
                         tr.calls("fgm.project_simplex")),
        "fgm.ls_retries": tr.fgm_retries * per,
        "fgm.accept_ratio": _ratio(steps, steps + tr.fgm_retries),
        "problems.hull_oracle.calls": tr.calls("problems.hull_oracle") * per,
        "problems.hull_oracle.self_s": tr.self_s("problems.hull_oracle") * per,
        "problems.fista_inner.calls": fista_calls * per,
        "problems.fista_inner.iters": iters * per,
        "problems.fista_inner.self_s": tr.self_s("problems.fista_inner") * per,
        "problems.fista_inner.iters_p50": _percentile(tr.inner_iters, 0.5),
        "problems.fista_inner.iters_p90": _percentile(tr.inner_iters, 0.9),
        "problems.fista_inner.zero_iter_share":
            _ratio(tr.inner_iters.get(0, 0), fista_calls),
        "problems.fista_inner.exhausted": tr.inner_exhausted * per,
        "problems.inner_q_value_grad.calls":
            tr.calls("problems.inner_q_value_grad") * per,
        "problems.inner_q_value_grad.us_per_call":
            1e6 * _ratio(tr.inclusive_s("problems.inner_q_value_grad"),
                         tr.calls("problems.inner_q_value_grad")),
        "problems.inner_q_value_grad.calls_per_iter":
            _ratio(tr.calls("problems.inner_q_value_grad"), iters),
        "problems.project_simplex.calls": tr.calls("problems.project_simplex") * per,
        "problems.project_simplex.us_per_call":
            1e6 * _ratio(tr.inclusive_s("problems.project_simplex"),
                         tr.calls("problems.project_simplex")),
        "problems.hull_value.calls": tr.calls("problems.hull_value") * per,
        "problems.hull_value.s": tr.inclusive_s("problems.hull_value") * per,
        "problems.estimate_fstar.s": tr.inclusive_s("problems.estimate_fstar") * per,
        "problems.softmax_value_grad.calls":
            tr.calls("problems.softmax_value_grad") * per,
        "problems.softmax_value_grad.us_per_call":
            1e6 * _ratio(tr.inclusive_s("problems.softmax_value_grad"),
                         tr.calls("problems.softmax_value_grad")),
        "problems.noisy_oracle.calls": tr.calls("problems.noisy_oracle") * per,
        "problems.noisy_oracle.s": tr.inclusive_s("problems.noisy_oracle") * per,
        "problems.generate_scenarios.s":
            tr.inclusive_s("problems.generate_scenarios") * per,
        "harness.run_experiment.s": tr.inclusive_s("harness.run_experiment") * per,
        "harness.runs": tr.harness_runs * per,
        "harness.failed_runs": tr.harness_failed_runs * per,
        "harness.fstar_ref.runs": tr.fstar_ref_runs * per,
        "harness.fstar_ref.s": tr.fstar_ref_s * per,
    })
    return out


def setup_metrics(tr: Tracer, traced_s: float) -> dict:
    """Metrics of one traced set-up."""
    return {
        "setup.traced_s": traced_s,
        "setup.certificates.fixed_step_certificates.s":
            tr.inclusive_s("certificates.fixed_step_certificates"),
        "setup.problems.generate_scenarios.s":
            tr.inclusive_s("problems.generate_scenarios"),
        "setup.harness.run_experiment.s": tr.inclusive_s("harness.run_experiment"),
    }
