"""The benchmark's tracer wraps package functions and reads their return
values and arguments. This runs a tiny version of every benchmark workload
under it, so that a refactor that breaks one of those reads fails here, not
only in a traced benchmark run.

``bench/`` is not a package: its directory goes on ``sys.path``, as
``bench/run.py`` does.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from test_csv_sha256 import TINY_EXP1, TINY_EXP2, TINY_EXP3

from tunable_oracle import certificates, harness, schedule_solver

BENCH = Path(__file__).resolve().parents[1] / "bench"

CONFIGS = (TINY_EXP1, TINY_EXP2, TINY_EXP3)


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
    # the fixed-step runs of a cell (experiments 1 and 2) step as one block;
    # the adaptive runs of experiment 3 step one at a time
    blocks = 1 + 1 + len(CONFIGS[2].schedules) * len(CONFIGS[2].seeds)
    assert metrics["fgm.fgm_run.calls"] == blocks + 1
    # one solved family per config, plus four direct accuracy solves
    assert metrics["schedule_solver.solve_accuracy.calls"] == len(CONFIGS) + 4
    assert metrics["schedule_solver.solve_work.s"] > 0.0
    # a line-search retry asks the online rule again
    assert metrics["schedule_solver.online_extend_accuracy.calls"] >= 10
    assert metrics["cost_models.lambert_w0.calls"] > 0
    assert metrics["problems.noisy_oracle.calls"] > 0
    # every hull value, sampled or not, comes from the one oracle path
    assert metrics["problems.hull_value.calls"] > 0
    # a one-row block (an adaptive run's call, a terminal solve) is one
    # fista_inner call; experiment 2's two-row blocks, one per step and per
    # sample, solve with fista_rows
    exp2 = CONFIGS[1]
    blocks2 = max(exp2.N) + len(range(0, max(exp2.N), exp2.sample_every))
    assert (metrics["problems.fista_inner.calls"]
            == metrics["problems.hull_oracle.calls"] - blocks2)
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
    {"problems.noisy_oracle": 20, "problems.softmax_value_grad": 107,
     "fgm.fgm_run": 2, "problems.estimate_fstar": 1,
     "certificates.next_certificate": 181},
    {"problems.hull_oracle": 19, "problems.hull_value": 2, "problems.fista_inner": 2,
     "fgm.fgm_run": 1, "problems.estimate_fstar": 1},
    {"problems.hull_oracle": 768, "problems.hull_value": 24, "problems.fista_inner": 768,
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
