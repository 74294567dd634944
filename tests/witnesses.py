"""Test-side witnesses: independent answers the tests check the package
against, and a small reader and writer for the CSV files the tests exchange
with it.

* ``h_derivative`` — h'(delta) of a cost model, for the KKT checks;
* ``closed_form_interior_accuracy`` / ``closed_form_interior_work`` — the
  all-interior closed forms, for instances where no bound binds;
* ``brute_force_oracle`` / ``brute_force_error_bound`` — a grid search over
  the box for N <= 4 and its objective slack;
* ``bisection_saturation_counts`` — the water-filling partition by one
  binary search over the breakpoints per side, the kernel's earlier search;
* ``float64_certificates`` — the certificate chain stepped on the array's
  np.float64 elements, the package's earlier loop;
* ``read_schedule`` / ``write_coefficients`` — the other side of the
  package's ``export_schedule`` and ``import_coefficients``.
"""

from __future__ import annotations

import bisect
import csv
import math

import numpy as np

from tunable_oracle.certificates import next_certificate
from tunable_oracle.cost_models import POWER, CostModel, _check_delta, _hprime_raw, h_eval
from tunable_oracle.schedule_solver import (
    _REL_TOL,
    Schedule,
    ScheduleProblem,
    SolverError,
    WorkProblem,
    reference_budget,
)


def h_derivative(model: CostModel, delta):
    """h'(delta) for finite delta > 0."""
    out = _hprime_raw(model, _check_delta(delta))
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# closed forms (interior solutions, no bound saturation)
# ---------------------------------------------------------------------------

def closed_form_interior_accuracy(p: ScheduleProblem) -> Schedule | None:
    """All-interior closed form for the power cost; None when a bound binds."""
    cm = p.cost_model
    if cm.kind != POWER:
        raise SolverError("interior closed form requires the power cost kind")
    r = cm.r
    w = (p.b * p.a**r) ** (1.0 / (r + 1.0))
    scale = (np.sum(w) / np.sum(p.b)) ** (1.0 / r)
    delta = p.delta_ref * scale * (p.b / p.a) ** (1.0 / (r + 1.0))
    lo, hi = p.m * p.delta_ref, p.M * p.delta_ref
    tol = _REL_TOL * p.delta_ref
    if np.any(delta < lo - tol) or np.any(delta > hi + tol):
        return None
    return Schedule(np.clip(delta, lo, hi if math.isfinite(hi) else None), "accuracy")


def closed_form_interior_work(p: WorkProblem) -> Schedule | None:
    """All-interior closed form of the work split; None when a bound binds."""
    w = (p.b * p.a**p.r) ** (1.0 / (p.r + 1.0))
    omega = p.omega_bar * w / np.sum(w)
    tol = _REL_TOL * p.omega_bar
    if np.any(omega < p.omega_M - tol) or np.any(omega > p.omega_m + tol):
        return None
    return Schedule(np.clip(omega, p.omega_M, p.omega_m), "work")


# ---------------------------------------------------------------------------
# bisection partition search (witness of the kernel's search)
# ---------------------------------------------------------------------------

def bisection_saturation_counts(n: int, key, c_hi: float, c_lo: float,
                                excess) -> tuple[int, int]:
    """Bound partition (n_plus, n_minus) of a water-filling along its ranking.

    Rank j is loose for multipliers lam <= key(j) * c_hi and tight for
    lam >= key(j) * c_lo, with key non-increasing in j and
    0 <= c_hi < c_lo <= inf. ``excess(lam, i, j)``, the clipped budget minus
    its target with ranks [0, i) loose and [j, n) tight, grows with lam. So
    rank j is loose at the solution iff the excess at its loose breakpoint is
    >= 0, and tight iff it is <= 0 at its tight breakpoint: one binary search
    per side. Each search first probes the end that would leave its set empty.
    """
    def probe(lam):
        i = bisect.bisect_left(range(n), True, key=lambda j: key(j) * c_hi < lam)
        j = bisect.bisect_left(range(n), True, key=lambda j: key(j) * c_lo <= lam)
        return excess(lam, i, max(i, j))

    n_plus = n_minus = 0
    if c_hi > 0.0 and probe(key(0) * c_hi) >= 0.0:
        n_plus = bisect.bisect_left(range(n), True, lo=1,
                                    key=lambda j: probe(key(j) * c_hi) < 0.0)
    if c_lo < math.inf and n_plus < n and probe(key(n - 1) * c_lo) <= 0.0:
        n_minus = n - bisect.bisect_left(range(n), True, lo=n_plus, hi=n - 1,
                                         key=lambda j: probe(key(j) * c_lo) <= 0.0)
    return n_plus, n_minus


# ---------------------------------------------------------------------------
# certificate chain on np.float64 elements (witness of its bytes)
# ---------------------------------------------------------------------------

def float64_certificates(N: int, L: float, mu: float = 0.0) -> np.ndarray:
    """A_0..A_N, each step reading A_k back from the array as np.float64."""
    A = np.empty(N + 1)
    A[0] = 0.0
    for k in range(N):
        A[k + 1] = next_certificate(A[k], L, mu)
    return A


# ---------------------------------------------------------------------------
# brute-force oracle (optimality witness)
# ---------------------------------------------------------------------------

def brute_force_oracle(p: ScheduleProblem, grid_points: int = 200) -> tuple[Schedule, float]:
    """Grid search over the box keeping near-on-budget points; N <= 4 only.

    A grid point is kept when its cell provably contains an exactly-on-budget
    point: the budget mismatch must be repairable by one-sided cost
    adjustments within each coordinate's cell. Every kept point is therefore
    within one cell of a feasible schedule, so the returned objective
    undershoots the true optimum by at most sum(a_k) * cell_width.
    """
    n = p.size
    if n > 4:
        raise SolverError("brute force supports N <= 4")
    if not math.isfinite(p.M):
        raise SolverError("brute force requires a finite M")
    lo, hi = p.m * p.delta_ref, p.M * p.delta_ref
    grid = np.linspace(lo, hi, grid_points)
    if p.m == 0.0:
        grid = grid[1:]  # h(0) = inf for every supported kind
    width = (hi - lo) / (grid_points - 1)
    cm = p.cost_model
    h_grid = h_eval(cm, grid)
    # One-sided cost adjustments reachable inside each point's cell, per axis:
    # moving left increases the cost, moving right decreases it.
    g_lo = np.maximum(grid - width, max(lo, 1e-300))
    g_hi = np.minimum(grid + width, hi)
    inc = h_eval(cm, g_lo) - h_grid
    dec = h_grid - h_eval(cm, g_hi)

    budget = reference_budget(p)
    shape = [1] * n
    total_cost = np.zeros([1] * n)
    total_inc = np.zeros([1] * n)
    total_dec = np.zeros([1] * n)
    total_obj = np.zeros([1] * n)
    for k in range(n):
        sh = shape.copy()
        sh[k] = grid.size
        total_cost = total_cost + (p.b[k] * h_grid).reshape(sh)
        total_inc = total_inc + (p.b[k] * inc).reshape(sh)
        total_dec = total_dec + (p.b[k] * dec).reshape(sh)
        total_obj = total_obj + (p.a[k] * grid).reshape(sh)
    gap = budget - total_cost
    feasible = (gap <= total_inc) & (-gap <= total_dec)
    if not np.any(feasible):
        raise SolverError("brute-force grid found no near-feasible point")
    obj = np.where(feasible, total_obj, math.inf)
    flat = int(np.argmin(obj))
    idx = np.unravel_index(flat, obj.shape)
    values = np.array([grid[i] for i in idx])
    return Schedule(values, "accuracy"), float(obj[idx])


def brute_force_error_bound(p: ScheduleProblem, grid_points: int = 200) -> float:
    """Objective slack of the brute-force oracle: sum(a_k) * cell width."""
    width = (p.M - p.m) * p.delta_ref / (grid_points - 1)
    return float(np.sum(p.a) * width)


# ---------------------------------------------------------------------------
# CSV files exchanged with the package
# ---------------------------------------------------------------------------

def read_schedule(path: str) -> Schedule:
    """A ``k,delta`` (accuracy) or ``k,omega`` (work) schedule file."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    if header not in (["k", "delta"], ["k", "omega"]):
        raise ValueError(f"{path}: not a schedule file: {header!r}")
    kind = "accuracy" if header[1] == "delta" else "work"
    return Schedule(np.array([float(value) for _, value in rows]), kind)


def write_coefficients(a, b, path: str):
    """A ``k,a,b`` coefficient file; ``repr`` keeps every float exact."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "a", "b"])
        writer.writerows((k, repr(float(a_k)), repr(float(b_k)))
                         for k, (a_k, b_k) in enumerate(zip(a, b, strict=True)))
