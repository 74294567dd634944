"""Benchmark of the tunable-oracle package.

Run from the repository root:

    python3 bench/run.py --workload hull_fixed [--seed 0] [--seconds 25] [--trace 0]

With ``--trace 0`` every pass is untraced and the end-to-end metrics are
reported. With ``--trace 1`` the first half of the time runs untraced passes
and the second half traced passes, and the per-layer metrics are reported.
A fixed calibration kernel is sampled around and during each pass (see
calibration.py); ``wall_cal`` is a pass's wall time in units of the kernel's
time, which cancels the machine's speed at the time.
Human-readable lines come first; the last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread, pinned before numpy is first imported.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"

SETUP_REPEATS = 5
MIN_PASSES = 2          # two passes are needed for the repeatability check
LAYER_SUM_TOLERANCE = 0.02

# name -> (unit, better); the end-to-end half of BENCHMARK.json
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_cal": ("cal", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

sys.path.insert(0, str(SRC))
import numpy as np

import checks
import tracer
from calibration import CHUNKS_PER_CAL, REFERENCE_CAL_S, Calibrator

# The package import is timed once, against both kernel mixes (see
# calibration.py), so that it can join the calibrated set-up cost.
_CALIBRATORS = {False: Calibrator(False), True: Calibrator(True)}


def _chunk_means() -> dict:
    return {mix: statistics.fmean(c.chunk() for _ in range(10))
            for mix, c in _CALIBRATORS.items()}


_before = _chunk_means()
_t0 = time.perf_counter()
try:
    import tunable_oracle
except ImportError as exc:
    raise SystemExit(f"error: cannot import the package from {SRC}: {exc}")
if Path(tunable_oracle.__file__).resolve().parent != SRC / "tunable_oracle":
    raise SystemExit(f"error: imported {tunable_oracle.__file__}, not the package in {SRC}")
from workloads import DEFAULT_SEED, SOLVE_ITEMS, WORKLOADS
IMPORT_S = time.perf_counter() - _t0
_after = _chunk_means()
IMPORT_CAL = {mix: IMPORT_S / (0.5 * (_before[mix] + _after[mix]) * CHUNKS_PER_CAL)
              for mix in _CALIBRATORS}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except Exception:  # show_config's layout differs across numpy versions
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_PIN["OPENBLAS_NUM_THREADS"],
            "nproc": os.cpu_count(), "cpu": _cpu_model(),
            "commit": _git_commit()}


class Runner:
    """Runs passes of one workload, judges every pass output and times each
    pass against the calibration kernel sampled around and during it."""

    def __init__(self, workload, state, reference, calibrator):
        self.workload = workload
        self.state = state
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.signature = None
        self.item_s: dict[str, list] = {}
        self.inner_iters: list[int] = []
        self.calibrations: list[float] = []
        self.calibrator = calibrator

    def run(self, run_pass, sample: bool = True) -> tuple[float, float]:
        """One judged pass; returns its wall seconds and calibration units."""
        raw, wall, cal_s = self.calibrator.time_pass(run_pass, self.state, sample)
        self.calibrations.append(cal_s)
        verdict = self.workload.evaluate(self.state, raw)
        problems = list(verdict.problems)
        if self.signature is None:
            self.signature = verdict.signature
        elif verdict.signature != self.signature:
            problems.append("pass output differs from the first pass")
        if self.reference is not None:
            problems += self.workload.compare_reference(verdict, self.reference)
        failed = verdict.failed
        if problems and not failed:
            failed = verdict.attempted
        self.attempted += verdict.attempted
        self.failed += failed
        self.problems += problems
        for item, s in verdict.item_s.items():
            self.item_s.setdefault(item, []).append(s)
        self.inner_iters.append(verdict.inner_iters)
        return wall, wall / cal_s

    def measure(self, deadline: float, min_passes: int, run_pass=None,
                sample: bool = True):
        """Passes until the next one would end after ``deadline``; returns
        their wall seconds and calibration units."""
        run_pass = run_pass or self.workload.run_pass
        walls, cals = [], []
        while True:
            wall, cal = self.run(run_pass, sample)
            walls.append(wall)
            cals.append(cal)
            if len(walls) >= min_passes and time.perf_counter() + wall > deadline:
                return walls, cals

    def text_metrics(self) -> dict:
        """Totals that are not end-to-end metrics of every workload."""
        out = {f"solve_s.{item}": statistics.median(self.item_s[item])
               if item in self.item_s else 0.0 for item in SOLVE_ITEMS}
        out["inner_iters"] = statistics.median(self.inner_iters)
        out["failed_share"] = self.failed / self.attempted
        out["calibration_s"] = statistics.median(self.calibrations)
        return out


def end_to_end_metrics(import_cal: float, setup_cals: list, cals: list,
                       reference_cal_s: float) -> dict:
    """``import_cal``, ``setup_cals`` and ``cals`` are the package import,
    the set-ups and the passes in calibration units.

    The import and a set-up last well under a second, too short to average
    out the machine's speed swings, so their cost is measured in calibration
    units and converted to seconds at the fixed reference speed
    ``reference_cal_s`` (seconds per cal).
    """
    setup_cal = import_cal + statistics.median(setup_cals)
    return {
        "setup_s": setup_cal * reference_cal_s,
        "wall_cal": statistics.median(cals),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(runner: Runner, untraced: tuple, traced: tuple,
                      tr, setup_tr, setup_traced_s: float,
                      residual_max: float) -> dict:
    """``untraced`` and ``traced`` are (walls, cals) of the two phases."""
    metrics = runner.text_metrics()
    metrics["wall_s"] = statistics.median(untraced[0])
    metrics.update(tracer.layer_metrics(tr, len(traced[0]), residual_max))
    metrics.update(tracer.setup_metrics(setup_tr, setup_traced_s))
    layer_sum = sum(tr.layer_self_s(layer) for layer in tracer.LAYERS)
    metrics["trace.wall_s"] = statistics.median(traced[0])
    metrics["trace.overhead_share"] = (statistics.median(traced[1])
                                       / statistics.median(untraced[1]) - 1.0)
    metrics["trace.layer_sum_error"] = abs(layer_sum - sum(traced[0])) / sum(traced[0])
    return metrics


def _load_reference(name: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    for key, value in environment().items():
        print(f"env.{key} = {value}")

    calibrator = _CALIBRATORS[workload.large_vectors]
    setup_cals = []
    for _ in range(SETUP_REPEATS):
        state, wall, cal_s = calibrator.time_pass(workload.setup, args.seed)
        setup_cals.append(wall / cal_s)
    runner = Runner(workload, state, _load_reference(workload.name, args.seed),
                    calibrator)

    start = time.perf_counter()
    if args.trace == 0:
        walls, cals = runner.measure(start + args.seconds, MIN_PASSES)
        metrics = end_to_end_metrics(IMPORT_CAL[workload.large_vectors], setup_cals,
                                     cals, REFERENCE_CAL_S[workload.large_vectors])
        units = END_TO_END
        shown = {**runner.text_metrics(), "wall_s": statistics.median(walls)}
        passes = f"{len(walls)} untraced"
    else:
        # both phases unsampled, so that their calibrations are alike
        untraced = runner.measure(start + 0.5 * args.seconds, 1, sample=False)
        with tracer.Tracer() as setup_tr:
            t0 = time.perf_counter()
            workload.setup(args.seed)
            setup_traced_s = time.perf_counter() - t0
        tr = tracer.Tracer()
        timed_pass = tr.wrap(tracer.ROOT_KEY, workload.run_pass)
        residual_max = 0.0
        with tr:
            walls, cals = [], []
            while not walls or time.perf_counter() < start + args.seconds:
                w, c = runner.measure(0.0, 1, timed_pass, sample=False)
                walls += w
                cals += c
                for p, sched in tr.solved:
                    residual_max = max(residual_max,
                                       checks.budget_residual(p, sched.values))
                tr.solved.clear()
        metrics = per_layer_metrics(runner, untraced, (walls, cals), tr, setup_tr,
                                    setup_traced_s, residual_max)
        if metrics["trace.layer_sum_error"] > LAYER_SUM_TOLERANCE:
            runner.problems.append("layer self times do not add up to the traced wall time")
            runner.failed = runner.attempted
        units = tracer.PER_LAYER
        shown = {}
        passes = f"{len(untraced[0])} untraced + {len(walls)} traced"

    print(f"workload = {workload.name}  seed = {args.seed}  trace = {args.trace}  "
          f"passes = {passes}")
    print("pass_s = " + " ".join(f"{w:.4f}" for w in walls))
    for name, value in shown.items():
        print(f"{name} = {value!r} {tracer.PER_LAYER[name][0]}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name][0]}")
    for msg in runner.problems[:20]:
        print(f"check failed: {msg}")

    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(value), "unit": units[name][0]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
