"""Exact solvers for the accuracy- and work-controlled allocation problems.

Given impact coefficients a (per-iteration weight of inexactness in the
convergence bound) and cost distortions b (per-iteration oracle cost
multipliers), the accuracy-controlled problem picks an inexactness value per
iteration inside [m*dref, M*dref] minimizing sum(a_k * delta_k) at the same
modeled cost as the constant reference schedule. Its solution is a
water-filling: iterations ranked by nu_k = b_k / a_k saturate the loose bound
first, the tight bound last, and the transient middle is pinned by a scalar
multiplier lam. The work-controlled variant allocates a total work budget with
the same structure.

Both solvers share one kernel, the breakpoint search of Palomar & Fonollosa
(IEEE TSP 2005): one sort by nu, a binary search over the saturation
breakpoints for the partition, then one solve of the transient set. It costs
O(N log N), plus O(log N) Lambert W passes for the log-squared kind.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import cost_models
from .cost_models import (
    LOGARITHMIC,
    POWER,
    CostModel,
    h_eval,
    _hprime_raw,
)

_REL_TOL = 1e-12
_NEWTON_STEP_TOL = 1e-14  # log(lam) step at which the log-squared Newton stops


class SolverError(RuntimeError):
    """Numerical failure or invalid instance in a schedule solve."""


def _as_positive_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise SolverError(f"{name} must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)) or np.any(arr <= 0.0):
        raise SolverError(f"{name} entries must be finite and > 0")
    return arr


@dataclass(frozen=True)
class ScheduleProblem:
    """Accuracy-controlled instance: coefficients, reference level and box."""

    a: np.ndarray
    b: np.ndarray
    delta_ref: float
    m: float
    M: float
    cost_model: CostModel

    def __post_init__(self):
        a = _as_positive_vector(self.a, "a")
        b = _as_positive_vector(self.b, "b")
        if a.size != b.size:
            raise SolverError("a and b must have the same length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (0.0 <= self.m < 1.0 < self.M):
            raise SolverError("bounds must satisfy 0 <= m < 1 < M")
        if not (self.delta_ref > 0.0 and math.isfinite(self.delta_ref)):
            raise SolverError("delta_ref must be finite and > 0")
        cm = self.cost_model
        # h' of log-squared vanishes at 1 and both log costs turn
        # non-positive there, so their box must end below 1
        if cm.kind != POWER and not self.M * self.delta_ref < 1.0:
            raise SolverError(f"the {cm.kind} kind needs M*delta_ref < 1")

    @property
    def size(self) -> int:
        return self.a.size


def accuracy_problem(a, b, delta_ref: float, m: float, M: float,
                     kind: str, r: float = 1.0) -> ScheduleProblem:
    """Convenience builder; ``r`` is read for the power kind only."""
    model = CostModel(kind, r if kind == POWER else 0.0)
    return ScheduleProblem(np.asarray(a, float), np.asarray(b, float),
                           delta_ref, m, M, model)


@dataclass(frozen=True)
class WorkProblem:
    """Work-controlled instance under the power-family cost h_r (r >= 0)."""

    a: np.ndarray
    b: np.ndarray
    omega_bar: float
    omega_M: float  # per-iteration lower work bound
    omega_m: float  # per-iteration upper work bound
    r: float

    def __post_init__(self):
        a = _as_positive_vector(self.a, "a")
        b = _as_positive_vector(self.b, "b")
        if a.size != b.size:
            raise SolverError("a and b must have the same length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        if not (self.omega_bar > 0.0 and math.isfinite(self.omega_bar)):
            raise SolverError("omega_bar must be finite and > 0")
        if not (0.0 <= self.omega_M < self.omega_bar / a.size < self.omega_m):
            raise SolverError("need omega_M < omega_bar/N < omega_m")
        if self.r < 0.0:
            raise SolverError("cost exponent r must be >= 0")

    @property
    def size(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class Schedule:
    values: np.ndarray
    kind: str  # "accuracy" | "work"

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


@dataclass(frozen=True)
class KktCertificate:
    n_plus: int
    n_minus: int
    lambda_star: float      # NaN when every rank is pinned
    budget_residual: float  # |achieved - budget| / budget of the returned schedule


def _descending_order(nu) -> np.ndarray:
    """Indices sorting nu in descending order; ties by lower index."""
    v = np.asarray(nu, dtype=float)
    if not np.all(np.isfinite(v)):
        raise SolverError("comparison vector must be finite")
    return np.argsort(-v, kind="stable")


def reference_budget(p: ScheduleProblem) -> float:
    """Total modeled cost of the constant reference schedule."""
    return float(np.sum(p.b) * h_eval(p.cost_model, p.delta_ref))


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
# water-filling kernel
# ---------------------------------------------------------------------------

def _span(prefix: np.ndarray, i: int, j: int) -> float:
    """Sum over ranks [i, j) from inclusive prefix sums."""
    return float(prefix[j - 1] - (prefix[i - 1] if i else 0.0)) if j > i else 0.0


def _saturation_counts(n: int, key, c_hi: float, c_lo: float,
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


def _degenerate(n_plus: int, n_minus: int, gap: float) -> KktCertificate:
    """Certificate of a partition pinning every rank, at relative budget gap."""
    if abs(gap) > 1e-10:
        raise SolverError("bound saturation exhausted all indices off-budget")
    return KktCertificate(n_plus, n_minus, math.nan, abs(gap))


def _budget_residual(achieved: float, target: float) -> float:
    residual = abs(achieved - target) / target
    if residual > 1e-8:
        raise SolverError(
            f"budget equation violated: achieved {achieved!r} vs target {target!r}")
    return residual


def _logsq_w(p: ScheduleProblem, idx: np.ndarray, lam: float) -> np.ndarray:
    """W(lam a_k / (2 b_k)) over idx, so log-squared delta_k(lam) = exp(-W);
    called through the module so that wrappers of lambert_w0 see it."""
    x = p.a[idx]
    x /= p.b[idx]
    x *= 0.5 * lam
    return cost_models.lambert_w0(x)


def _accuracy_excess(p: ScheduleProblem, order: np.ndarray, budget: float,
                     h_hi: float, h_lo: float):
    """``excess(lam, i, j)`` of the accuracy problem for the kernel.

    Transient rank k costs b_k h((h')^{-1}(-lam/nu_k)): (b_k a_k^r)^{1/(r+1)}
    (lam/r)^{r/(r+1)} for power, b_k log(lam) + b_k log(a_k/b_k) for log (both
    O(1) from prefix sums) and b_k W(lam a_k/(2 b_k))^2 for log-squared.
    """
    cm, n = p.cost_model, p.size
    sb = p.b[order]
    if cm.kind == POWER:
        g = np.cumsum((sb * p.a[order] ** cm.r) ** (1.0 / (cm.r + 1.0)))
    elif cm.kind == LOGARITHMIC:
        g = np.cumsum(sb * np.log(p.a[order] / sb))
    np.cumsum(sb, out=sb)

    def transient(lam, i, j):
        if cm.kind == POWER:
            return (lam / cm.r) ** (cm.r / (cm.r + 1.0)) * _span(g, i, j)
        if cm.kind == LOGARITHMIC:
            return math.log(lam) * _span(sb, i, j) + _span(g, i, j)
        if j <= i:
            return 0.0
        w = _logsq_w(p, order[i:j], lam)
        w *= w
        return float(p.b[order[i:j]] @ w)

    def excess(lam, i, j):
        pinned = h_hi * _span(sb, 0, i) + (h_lo * _span(sb, j, n) if j < n else 0.0)
        return pinned + transient(lam, i, j) - budget
    return excess


def _transient_accuracy(p: ScheduleProblem, idx_T: np.ndarray, budget_T: float,
                        lam_cap: float) -> tuple[np.ndarray, float]:
    """Interior values on the transient set and the multiplier lambda_star < 0.

    Closed forms for the power/logarithmic kinds; log-squared takes Newton
    steps down from ``lam_cap``, an upper bound of the multiplier magnitude.
    """
    cm = p.cost_model
    aT, bT = p.a[idx_T], p.b[idx_T]
    if budget_T <= 0.0:
        raise SolverError("non-positive residual budget on the transient set")

    if cm.kind == POWER:
        r = cm.r
        w = (bT * aT**r) ** (1.0 / (r + 1.0))
        lam_hat = (budget_T / np.sum(w)) ** (-1.0 / r)
        delta = lam_hat * (bT / aT) ** (1.0 / (r + 1.0))
        lambda_star = -r * lam_hat ** (-(r + 1.0))
        return delta, lambda_star

    if cm.kind == LOGARITHMIC:
        # Solved in log domain: the raw product over (b_k/a_k)^{-b_k} overflows.
        log_ratio = np.log(bT) - np.log(aT)
        log_lam_hat = -(budget_T + np.sum(bT * log_ratio)) / np.sum(bT)
        delta = np.exp(log_lam_hat + log_ratio)
        lambda_star = -math.exp(-log_lam_hat)
        return delta, lambda_star

    # log_squared: with W_k = W(lam a_k / (2 b_k)), the transient cost
    # R(t) = sum b_k W_k^2 at t = log(lam) is increasing and convex
    # (R' = sum 2 b_k W_k^2 / (1 + W_k)), so Newton steps from an upper bound
    # descend monotonically onto the root. The mean cost H = budget_T / sum b_k
    # gives a bound too: some delta_k >= h^{-1}(H) = exp(-sqrt(H)), so
    # lam <= max nu_k * -h'(exp(-sqrt(H))) = max nu_k * 2 sqrt(H) exp(sqrt(H)).
    root_h = math.sqrt(budget_T / float(np.sum(bT)))
    with np.errstate(over="ignore"):
        lam_cap = min(lam_cap, float(bT[0] / aT[0] * 2.0 * root_h * np.exp(root_h)))
    if not lam_cap < math.inf:
        raise SolverError("no finite bound on the log-squared multiplier")
    del aT
    t = math.log(lam_cap)
    while True:
        w = _logsq_w(p, idx_T, math.exp(t))
        cost = w * w
        gap = float(bT @ cost) - budget_T
        if gap <= 0.0:
            break
        cost /= w + 1.0
        step = gap / (2.0 * float(bT @ cost))
        if step <= _NEWTON_STEP_TOL:
            break
        t -= step
    np.negative(w, out=w)
    return np.exp(w, out=w), -math.exp(t)


def solve_accuracy(p: ScheduleProblem) -> tuple[Schedule, KktCertificate]:
    """Water-filling solve of the accuracy-controlled problem: rank j is
    loose for lam <= nu_j * -h'(hi) and tight for lam >= nu_j * -h'(lo)."""
    n, cm = p.size, p.cost_model
    nu = p.b / p.a
    order = _descending_order(nu)
    lo, hi = p.m * p.delta_ref, p.M * p.delta_ref
    finite_hi = math.isfinite(hi)
    budget = reference_budget(p)
    h_hi = h_eval(cm, hi) if finite_hi else 0.0
    # h blows up at 0 for every supported kind, so m = 0 forbids pinning below.
    allow_minus = p.m > 0.0
    h_lo = h_eval(cm, lo) if allow_minus else math.inf
    c_hi = -float(_hprime_raw(cm, hi)) if finite_hi else 0.0
    c_lo = -float(_hprime_raw(cm, lo)) if allow_minus else math.inf

    def key(j):
        return nu[order[j]]

    n_plus, n_minus = _saturation_counts(
        n, key, c_hi, c_lo, _accuracy_excess(p, order, budget, h_hi, h_lo))
    idx_plus, idx_minus = order[:n_plus], order[n - n_minus:]
    idx_T = order[n_plus:n - n_minus]
    values = np.empty(n)
    values[idx_plus] = hi
    values[idx_minus] = lo
    budget_T = budget - h_hi * np.sum(p.b[idx_plus])
    if n_minus:
        budget_T -= h_lo * np.sum(p.b[idx_minus])
    if idx_T.size == 0:
        cert = _degenerate(n_plus, n_minus, budget_T / budget)
        return Schedule(values, "accuracy"), cert

    # below the loose breakpoint of the last loose rank and the tight
    # breakpoint of the last transient rank
    lam_cap = min(key(n_plus - 1) * c_hi if n_plus else math.inf,
                  key(n - n_minus - 1) * c_lo)
    delta_T, lambda_star = _transient_accuracy(p, idx_T, budget_T, lam_cap)
    if ((finite_hi and np.any(delta_T > hi * (1.0 + _REL_TOL)))
            or (allow_minus and np.any(delta_T < lo * (1.0 - _REL_TOL)))):
        raise SolverError("transient values leave the box: partition search failed")
    values[idx_T] = np.clip(delta_T, lo, hi if finite_hi else None)
    del delta_T
    residual = _budget_residual(float(p.b @ h_eval(cm, values)), budget)
    cert = KktCertificate(n_plus, n_minus, float(lambda_star), residual)
    return Schedule(values, "accuracy"), cert


def solve_work(p: WorkProblem) -> tuple[Schedule, KktCertificate]:
    """Water-filling solve of the work-controlled problem.

    The kernel of ``solve_accuracy`` after a change of variables: the
    interior split is omega_k = lam * w_k, w_k = (b_k a_k^r)^{1/(r+1)}, so
    rank j is loose (omega_M) for lam <= omega_M / w_j, tight (omega_m) for
    lam >= omega_m / w_j, and the transient ranks take lam * sum w_k.
    """
    n = p.size
    weights = (p.b * p.a**p.r) ** (1.0 / (p.r + 1.0))
    nu = 1.0 / (p.a**p.r * p.b)
    order = _descending_order(nu)
    sw = np.cumsum(weights[order])
    n_plus, n_minus = _saturation_counts(
        n, lambda j: 1.0 / weights[order[j]], p.omega_M, p.omega_m,
        lambda lam, i, j: (i * p.omega_M + (n - j) * p.omega_m
                           + lam * _span(sw, i, j) - p.omega_bar))
    del sw
    idx_plus, idx_minus = order[:n_plus], order[n - n_minus:]
    idx_T = order[n_plus:n - n_minus]
    values = np.empty(n)
    values[idx_plus] = p.omega_M
    values[idx_minus] = p.omega_m
    residual = p.omega_bar - n_plus * p.omega_M - n_minus * p.omega_m
    if idx_T.size == 0:
        cert = _degenerate(n_plus, n_minus, residual / p.omega_bar)
        return Schedule(values, "work"), cert
    if residual <= 0.0:
        raise SolverError("non-positive residual work budget")
    omega_T = weights[idx_T]
    lam_hat = residual / float(np.sum(omega_T))
    omega_T *= lam_hat
    tol = _REL_TOL * p.omega_bar
    if np.any(omega_T < p.omega_M - tol) or np.any(omega_T > p.omega_m + tol):
        raise SolverError("transient values leave the box: partition search failed")
    values[idx_T] = np.clip(omega_T, p.omega_M, p.omega_m)
    del omega_T
    budget_residual = _budget_residual(float(np.sum(values)), p.omega_bar)
    cert = KktCertificate(n_plus, n_minus, float(lam_hat), budget_residual)
    return Schedule(values, "work"), cert


# ---------------------------------------------------------------------------
# online extension rule
# ---------------------------------------------------------------------------

def online_extend_accuracy(known: tuple[float, float, float],
                           query: tuple[float, float],
                           r: float, bounds: tuple[float, float]) -> float:
    """Extend a solved accuracy schedule to an unseen iteration by ratio."""
    a_k, b_k, delta_k = known
    a_q, b_q = query
    factor = ((b_q * a_k) / (a_q * b_k)) ** (1.0 / (r + 1.0))
    lo, hi = bounds
    return float(min(hi, max(lo, factor * delta_k)))


# ---------------------------------------------------------------------------
# brute-force oracle (test-side optimality witness)
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

