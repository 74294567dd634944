"""Output checks of the benchmark.

The schedule checks re-derive the cost shapes h and h' here instead of
calling the package, so that they are an independent witness and do not
show up in the traced counters. Each check returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

BUDGET_RTOL = 1e-8        # the solvers' own acceptance tolerance
BOX_RTOL = 1e-12
RANK_RTOL = 1e-9
STATIONARITY_RTOL = 1e-6
INTERIOR_MARGIN = 1e-9    # values this close to a bound count as pinned
GAP_ATOL = 1e-9           # gap evaluations are certified to 1e-10
REFERENCE_GAP_RTOL = 1e-6


def _h(kind: str, r: float, d: np.ndarray) -> np.ndarray:
    if kind == "power":
        return d ** (-r)
    if kind == "logarithmic":
        return -np.log(d)
    return np.log(d) ** 2


def _h_prime(kind: str, r: float, d: np.ndarray) -> np.ndarray:
    if kind == "power":
        return -r * d ** (-(r + 1.0))
    if kind == "logarithmic":
        return -1.0 / d
    return 2.0 * np.log(d) / d


def budget_residual(p, values) -> float:
    """|sum b h(delta) - sum b h(delta_ref)| relative to the reference budget."""
    cm = p.cost_model
    v = np.asarray(values, dtype=float)
    budget = float(np.sum(p.b)) * float(_h(cm.kind, cm.r, np.float64(p.delta_ref)))
    achieved = float(np.sum(p.b * _h(cm.kind, cm.r, v)))
    return abs(achieved - budget) / budget


def _rank_and_stationarity(values, nu, ascending_values: bool,
                           interior, ratio) -> list[str]:
    """Shared structure checks of a water-filling solution.

    Along descending nu the values must be monotone (non-increasing for an
    accuracy schedule, non-decreasing for a work split), and on the
    transient set ``ratio`` (the stationarity multiplier per index) must be
    one constant.
    """
    problems = []
    order = np.argsort(-nu, kind="stable")
    vs = values[order]
    step = np.diff(vs) if ascending_values else -np.diff(vs)
    if np.any(step < -RANK_RTOL * np.abs(vs[1:])):
        problems.append("values are not monotone in the nu ranking")
    if np.count_nonzero(interior) >= 2:
        g = ratio[interior]
        spread = (float(np.max(g)) - float(np.min(g))) / float(np.median(g))
        if not spread <= STATIONARITY_RTOL:
            problems.append(f"transient set not stationary (spread {spread:.3e})")
    return problems


def check_accuracy_schedule(p, values) -> list[str]:
    """Budget equation, box bounds, rank monotonicity and stationarity."""
    v = np.asarray(values, dtype=float)
    if v.shape != p.a.shape or not np.all(np.isfinite(v)) or np.any(v <= 0.0):
        return ["schedule is not a positive finite vector of the problem's length"]
    problems = []
    cm = p.cost_model
    lo, hi = p.m * p.delta_ref, p.M * p.delta_ref
    if np.any(v < lo * (1.0 - BOX_RTOL)) or np.any(v > hi * (1.0 + BOX_RTOL)):
        problems.append("values leave the box [m*delta_ref, M*delta_ref]")
    residual = budget_residual(p, v)
    if not residual <= BUDGET_RTOL:
        problems.append(f"budget equation off by {residual:.3e} (relative)")
    interior = (v < hi * (1.0 - INTERIOR_MARGIN)) & (v > lo * (1.0 + INTERIOR_MARGIN))
    # stationarity: a_k + lambda b_k h'(delta_k) = 0 on the transient set
    ratio = p.a / (p.b * -_h_prime(cm.kind, cm.r, v))
    problems += _rank_and_stationarity(v, p.b / p.a, False, interior, ratio)
    return problems


def check_work_schedule(p, values) -> list[str]:
    """The same four conditions for a work split (sum omega = omega_bar)."""
    v = np.asarray(values, dtype=float)
    if v.shape != p.a.shape or not np.all(np.isfinite(v)):
        return ["schedule is not a finite vector of the problem's length"]
    problems = []
    if (np.any(v < p.omega_M * (1.0 - BOX_RTOL))
            or np.any(v > p.omega_m * (1.0 + BOX_RTOL))):
        problems.append("values leave the box [omega_M, omega_m]")
    residual = abs(float(np.sum(v)) - p.omega_bar) / p.omega_bar
    if not residual <= BUDGET_RTOL:
        problems.append(f"work budget off by {residual:.3e} (relative)")
    weights = (p.b * p.a ** p.r) ** (1.0 / (p.r + 1.0))
    interior = ((v > p.omega_M * (1.0 + INTERIOR_MARGIN))
                & (v < p.omega_m * (1.0 - INTERIOR_MARGIN)))
    nu = 1.0 / (p.a ** p.r * p.b)
    problems += _rank_and_stationarity(v, nu, True, interior, v / weights)
    return problems


def check_experiment(result) -> list[str]:
    """No failed runs, and finite gaps that are not below the f* bound."""
    problems = [f"run failed: {f}" for f in result.failures]
    for row in result.summaries:
        for name in ("median_gap", "mean_gap"):
            gap = getattr(row, name)
            if not (math.isfinite(gap) and gap >= -GAP_ATOL):
                problems.append(f"{row.schedule} N={row.N}: {name} = {gap!r}")
    return problems


def summary_lines(result) -> list[str]:
    """The summary rows as summary.csv would print them, in its order."""
    rows = sorted(result.summaries, key=lambda s: (s.N, s.delta_ref, s.schedule))
    return [f"{s.experiment},{s.schedule},{s.mu:.17g},{s.r:.17g},{s.N},"
            f"{s.delta_ref:.17g},{s.median_gap:.17g},{s.mean_gap:.17g},"
            f"{s.total_inner_work:.17g}" for s in rows]


def close(x: float, ref: float, rtol: float) -> bool:
    return abs(x - ref) <= rtol * max(abs(ref), 1e-300)


def experiment_reference(result) -> list[dict]:
    """Summary rows in summary.csv order, as JSON records."""
    rows = sorted(result.summaries, key=lambda s: (s.N, s.delta_ref, s.schedule))
    return [{"schedule": s.schedule, "N": s.N, "median_gap": s.median_gap,
             "mean_gap": s.mean_gap, "total_inner_work": s.total_inner_work}
            for s in rows]


def compare_experiment_reference(records: list[dict], ref: list[dict]) -> list[str]:
    """Exact inner work per summary row and gaps within REFERENCE_GAP_RTOL."""
    if [(r["schedule"], r["N"]) for r in records] != [(r["schedule"], r["N"]) for r in ref]:
        return ["summary rows differ from the reference"]
    problems = []
    for got, want in zip(records, ref):
        label = f"{got['schedule']} N={got['N']}"
        if got["total_inner_work"] != want["total_inner_work"]:
            problems.append(f"{label}: inner work {got['total_inner_work']!r} "
                            f"vs {want['total_inner_work']!r}")
        for name in ("median_gap", "mean_gap"):
            if not close(got[name], want[name], REFERENCE_GAP_RTOL):
                problems.append(f"{label}: {name} {got[name]!r} vs {want[name]!r}")
    return problems
