"""The benchmark's tracer wraps package functions and reads their return
values and arguments. This runs a tiny version of every benchmark workload
under it, so that a refactor that breaks one of those reads fails here, not
only in a traced benchmark run.

``bench/`` is not a package: its directory goes on ``sys.path``, as
``bench/run.py`` does.
"""

import importlib
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tunable_oracle import certificates, harness, schedule_solver

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIGS = (
    replace(harness.default_config(1), d=5, n=6, p=1.0, mu=0.1, N=(20,),
            seeds=(0, 1)),
    replace(harness.default_config(2), d=8, n=5, p=1.0, sigma=1e-2, N=(15,),
            seeds=(0,)),
    replace(harness.default_config(3), d=8, n=5, p=1.0, sigma=1e-2,
            N=(harness.N_R + 10,), seeds=(0,)),
)


def _solves():
    """A 50-element accuracy solve of each cost kind, a work solve and the
    toy solve, called through the module as the benchmark calls them."""
    a, b = certificates.impact_coefficients_fgm(
        certificates.fixed_step_certificates(50, 1.0, 0.0))
    for kind, r in (("power", 1.0), ("logarithmic", 0.0), ("log_squared", 0.0)):
        schedule_solver.solve_accuracy(
            schedule_solver.accuracy_problem(a, b, 1e-3, 0.0, 100.0, kind, r))
    schedule_solver.solve_work(
        schedule_solver.WorkProblem(a, b, 50.0, 0.1, 2.2, 1.0))
    schedule_solver.solve_accuracy(harness.toy_instance())


def test_layer_metrics_of_every_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    with tr:
        results = [harness.run_experiment(cfg) for cfg in CONFIGS]
        _solves()
    metrics = tracer.layer_metrics(tr, 1, 0.0)

    assert set(metrics) <= set(tracer.PER_LAYER)
    assert all(math.isfinite(v) for v in metrics.values()), metrics
    runs = sum(len(cfg.schedules) * len(cfg.seeds) for cfg in CONFIGS)
    assert metrics["harness.runs"] == runs
    assert metrics["harness.failed_runs"] == 0
    assert all(not result.failures for result in results)
    # experiment 1 runs one noise-free f* reference, on top of its runs
    assert metrics["harness.fstar_ref.runs"] == 1
    assert metrics["fgm.fgm_run.calls"] == runs + 1
    # one solved family per config, plus four direct accuracy solves
    assert metrics["schedule_solver.solve_accuracy.calls"] == len(CONFIGS) + 4
    assert metrics["schedule_solver.solve_work.s"] > 0.0
    # a line-search retry asks the online rule again
    assert metrics["schedule_solver.online_extend_accuracy.calls"] >= 10
    assert metrics["cost_models.lambert_w0.calls"] > 0
    assert metrics["problems.noisy_oracle.calls"] > 0
    # every hull value, sampled or not, comes from the one oracle path
    assert metrics["problems.hull_value.calls"] > 0
    assert metrics["problems.fista_inner.calls"] == metrics["problems.hull_oracle.calls"]
    assert metrics["problems.fista_inner.exhausted"] == 0
    assert (metrics["problems.fista_inner.iters_p50"]
            <= metrics["problems.fista_inner.iters_p90"])
    assert 0.0 < metrics["fgm.accept_ratio"] <= 1.0
    assert metrics["fgm.steps"] > runs
    assert np.isclose(sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS),
                      sum(tr.self_s(key) for key in tr.stats))


# the call counts of each tiny config under its own tracer; a collaborator
# bound when the module is imported, rather than looked up at call time,
# hides its calls from the tracer and shows up here
CALLS = (
    {"problems.noisy_oracle": 160, "problems.softmax_value_grad": 173,
     "fgm.fgm_run": 5, "problems.estimate_fstar": 1,
     "certificates.next_certificate": 241},
    {"problems.hull_oracle": 36, "problems.hull_value": 4, "fgm.fgm_run": 2,
     "problems.estimate_fstar": 1},
    {"problems.hull_oracle": 768, "problems.hull_value": 24,
     "schedule_solver.online_extend_accuracy": 15, "fgm.fgm_run": 4,
     "problems.estimate_fstar": 1},
)


@pytest.mark.parametrize("cfg, calls", zip(CONFIGS, CALLS),
                         ids=[f"exp{cfg.experiment}" for cfg in CONFIGS])
def test_exact_call_counts_of_every_experiment(monkeypatch, cfg, calls):
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    tr = tracer.Tracer()
    with tr:
        harness.run_experiment(cfg)
    assert {key: tr.calls(key) for key in calls} == calls
