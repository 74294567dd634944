"""Tests of the benchmark's own machinery: tracer arithmetic, output checks
and the metric names it emits.

    python3 -m pytest bench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import tracer
from tunable_oracle import certificates, harness, problems, schedule_solver

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_a_synthetic_nest():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def leaf():
        clock.now += 5.0

    def middle():
        clock.now += 1.0
        inner()
        clock.now += 2.0
        inner()
        clock.now += 3.0

    inner = tr.wrap("problems.leaf", leaf)
    outer = tr.wrap("fgm.middle", middle)
    root = tr.wrap(tracer.ROOT_KEY, lambda: (clock.__setattr__("now", clock.now + 4.0),
                                             outer()))
    root()

    assert tr.stats["problems.leaf"] == [2, 10.0, 10.0]
    assert tr.stats["fgm.middle"] == [1, 16.0, 6.0]
    assert tr.stats[tracer.ROOT_KEY] == [1, 20.0, 4.0]
    layers = {layer: tr.layer_self_s(layer) for layer in tracer.LAYERS}
    assert layers["problems"] == 10.0 and layers["fgm"] == 6.0 and layers["bench"] == 4.0
    assert sum(layers.values()) == tr.inclusive_s(tracer.ROOT_KEY)


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def failing():
        clock.now += 3.0
        raise ValueError("boom")

    inner = tr.wrap("problems.failing", failing)

    def parent():
        clock.now += 1.0
        with pytest.raises(ValueError):
            inner()

    tr.wrap("harness.parent", parent)()
    assert tr.stats["harness.parent"] == [1, 4.0, 1.0]
    assert tr.stats["problems.failing"] == [1, 3.0, 3.0]


def test_install_and_restore_every_site():
    modules = {"harness": harness, "problems": problems,
               "schedule_solver": schedule_solver, "certificates": certificates}
    before = {(m, a): getattr(modules[m], a) for m, a, _ in tracer.SITES
              if m in modules}
    with tracer.Tracer():
        for (m, a), fn in before.items():
            assert getattr(modules[m], a).__wrapped__ is fn
    for (m, a), fn in before.items():
        assert getattr(modules[m], a) is fn


def _fgm_problem(kind, r=1.0, n=300):
    certs = certificates.fixed_step_certificates(n, 1.0, 0.0)
    a, b = certificates.impact_coefficients_fgm(certs)
    return schedule_solver.accuracy_problem(a, b, 1e-3, 0.0, 100.0, kind, r)


def _random_problem(kind, r=1.0, n=300):
    rng = np.random.default_rng(5)
    a, b = np.exp(rng.uniform(-3, 3, (2, n)))
    return schedule_solver.accuracy_problem(a, b, 1e-3, 0.1, 100.0, kind, r)


@pytest.mark.parametrize("make", [_fgm_problem, _random_problem])
@pytest.mark.parametrize("kind", ["power", "logarithmic", "log_squared"])
def test_accuracy_check_accepts_solution_and_rejects_scaled(make, kind):
    p = make(kind)
    sched, _ = schedule_solver.solve_accuracy(p)
    assert checks.check_accuracy_schedule(p, sched.values) == []
    assert checks.check_accuracy_schedule(p, 1.01 * sched.values) != []


def test_accuracy_check_accepts_toy_instance():
    p = harness.toy_instance()
    sched, _ = schedule_solver.solve_accuracy(p)
    assert checks.check_accuracy_schedule(p, sched.values) == []
    assert checks.check_accuracy_schedule(p, 1.01 * sched.values) != []


def test_accuracy_check_rejects_swapped_ranks():
    p = _random_problem("power")
    sched, _ = schedule_solver.solve_accuracy(p)
    order = np.argsort(-(p.b / p.a), kind="stable")
    swapped = sched.values.copy()
    i, j = order[0], order[-1]
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert "values are not monotone in the nu ranking" in \
        checks.check_accuracy_schedule(p, swapped)


def test_work_check_accepts_solution_and_rejects_scaled():
    rng = np.random.default_rng(7)
    a, b = np.exp(rng.uniform(-3, 3, (2, 300)))
    p = schedule_solver.WorkProblem(a, b, 300.0, 0.1, 2.2, 1.0)
    sched, _ = schedule_solver.solve_work(p)
    assert checks.check_work_schedule(p, sched.values) == []
    assert checks.check_work_schedule(p, 1.01 * sched.values) != []


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_emitted_names_are_declared():
    spec = _benchmark_json()
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    e2e = run.end_to_end_metrics(0.2, [0.2, 0.3, 0.4], [3.0, 4.0], 0.5)
    assert e2e["setup_s"] == pytest.approx((0.2 + 0.3) * 0.5)
    runner = run.Runner(workload=None, state=None, reference=None, calibrator=None)
    runner.attempted, runner.inner_iters, runner.calibrations = 1, [0], [0.5]
    layer = run.per_layer_metrics(runner, ([1.0], [2.0]), ([1.1], [2.2]),
                                  tracer.Tracer(), tracer.Tracer(), 0.5, 0.0)

    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert set(layer) == {m["name"] for m in spec["per_layer"]}
    for name, unit in list(e2e.items()) + list(layer.items()):
        assert NAME.fullmatch(name), name
    for name in e2e:
        assert run.END_TO_END[name][0] == declared[name]
    for name in layer:
        assert tracer.PER_LAYER[name][0] == declared[name]
    for metric in spec["per_layer"]:
        assert metric["better"] == tracer.PER_LAYER[metric["name"]][1]
    for metric in spec["end_to_end"]:
        assert metric["better"] == run.END_TO_END[metric["name"]][1]


def test_workload_names_are_declared():
    from workloads import WORKLOADS
    assert list(WORKLOADS) == [w["name"] for w in _benchmark_json()["workloads"]]


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "hull_fixed",
                          "--seconds", "1"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
