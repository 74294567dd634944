"""Test problems and oracles: the softmax-smoothed robust objective with
synthetic gradient noise, and robust optimization over the convex hull of
scenarios where a FISTA inner solver makes oracle inexactness genuinely
costly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .cost_models import CostModel, h_eval
from .fgm import project_simplex


_MAX_INNER = 10**6  # inner iteration cap of fista_inner
ALPHA = 100.0  # gradient-noise scale of noisy_oracle (experiment 1)


class OracleError(RuntimeError):
    pass


class InnerSolverExhausted(OracleError):
    def __init__(self, achieved_gap: float, target: float, work: int):
        super().__init__(
            f"inner solver exhausted: gap {achieved_gap:.3e} vs target {target:.3e} after {work} steps"
        )


@dataclass
class ScenarioData:
    """Scenario matrix O (rows theta_i) plus the problem constants."""

    O: np.ndarray
    sigma: float
    mu: float
    theta_bar: np.ndarray = field(init=False)  # the anchor: row mean of O
    half_sigma: float = field(init=False)  # 0.5 * sigma
    lam_max: float = field(init=False)
    lam_min: float = field(init=False)  # smallest eigenvalue of O O^T

    def __post_init__(self):
        self.O = np.asarray(self.O, dtype=float)
        self.theta_bar = self.O.mean(axis=0)
        self.half_sigma = 0.5 * self.sigma
        n, d = self.O.shape
        if self.sigma <= 0.0 or self.mu < 0.0:
            raise OracleError("need sigma > 0 and mu >= 0")
        gram = self.O @ self.O.T if n <= d else self.O.T @ self.O
        eigs = np.linalg.eigvalsh(gram)
        self.lam_max = float(eigs[-1])
        self.lam_min = float(eigs[0]) if n <= d else 0.0

    @property
    def n(self) -> int:
        return self.O.shape[0]

    @functools.cached_property
    def fista_constants(self) -> tuple[float, float | None]:
        """The inner solver's step 1/(sigma lam_max) and its constant
        momentum, None when the Gram matrix is rank deficient."""
        L_w = self.sigma * self.lam_max
        if L_w <= 0.0:
            raise OracleError("degenerate inner problem: sigma * lam_max == 0")
        kap = kappa_hat(self)
        beta = (1.0 - math.sqrt(kap)) / (1.0 + math.sqrt(kap)) if kap > 0.0 else None
        return 1.0 / L_w, beta


def generate_scenarios(n: int, d: int, p: float, seed: int,
                       sigma: float = 1e-3, mu: float = 0.0) -> ScenarioData:
    """n Gaussian scenarios with per-coordinate variance 1/p, seeded."""
    if n < 1 or d < 1 or p <= 0.0:
        raise OracleError("need n, d >= 1 and p > 0")
    rng = np.random.default_rng(seed)
    O = rng.standard_normal((n, d)) / math.sqrt(p)
    return ScenarioData(O=O, sigma=sigma, mu=mu)


def kappa_hat(data: ScenarioData) -> float:
    """Eigenvalue ratio of the scenario Gram matrix, 0 when rank deficient."""
    if data.lam_min < 1e-10 * data.lam_max:
        return 0.0
    return data.lam_min / data.lam_max


@dataclass(frozen=True)
class OracleReply:
    value: float
    gradient: np.ndarray
    delta: float
    inner_work: float

    def __post_init__(self):
        if self.delta < 0.0 or self.inner_work < 0.0:
            raise OracleError("delta and inner_work must be >= 0")


# ---------------------------------------------------------------------------
# softmax objective with synthetic noise
# ---------------------------------------------------------------------------

def softmax_value_grad(data: ScenarioData, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Smoothed robust objective (smoothing parameter 1) and its gradient,
    overflow safe.

    ``s[s.argmax()]`` is ``s.max()`` and ``np.add.reduce`` is the pairwise
    sum of ``e.sum()``, each without the method's dispatch overhead.
    """
    s = data.O @ x
    mx = float(s[s.argmax()])
    e = np.exp(s - mx)
    denom = float(np.add.reduce(e))
    value = mx + math.log(denom / data.n)
    grad = data.O.T @ (e / denom)
    # at mu = 0 each term adds a zero, which can change only a zero's sign
    if data.mu:
        value += 0.5 * data.mu * float(x @ x)
        grad += data.mu * x
    return value, grad


def noisy_oracle(data: ScenarioData, x: np.ndarray, delta: float,
                 rng: np.random.Generator, cost: CostModel) -> OracleReply:
    """Exact value, gradient corrupted on a sphere of radius ALPHA*delta.

    The certified inexactness of the resulting information tuple is
    4*ALPHA*delta; the simulated work charged is ``h_eval(cost, delta)``,
    zero for an exact request. A request above ``cost.delta_max`` is refused:
    the log cost would charge a negative amount there.
    """
    if not delta >= 0.0:  # NaN fails too
        raise OracleError("need delta >= 0")
    if delta > cost.delta_max:
        raise OracleError(f"the {cost.kind} cost needs delta <= {cost.delta_max:g}, "
                          f"got delta = {delta!r}")
    value, grad = softmax_value_grad(data, x)
    if delta > 0.0:
        u = rng.standard_normal(x.size)
        u /= math.sqrt(float(u.dot(u)))  # np.linalg.norm(u) to the bit
        grad = grad + ALPHA * delta * u
        work = h_eval(cost, delta)
    else:
        work = 0.0
    return OracleReply(value=value, gradient=grad, delta=4.0 * ALPHA * delta,
                       inner_work=work)


# ---------------------------------------------------------------------------
# convex-hull inner problem and its FISTA solver
# ---------------------------------------------------------------------------

def inner_q_value_grad(data: ScenarioData, w: np.ndarray,
                       x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Concave inner objective q(w; x), its gradient in w, and O^T w.

    The inner solver's hot path: ndarray ``dot`` (the same BLAS call as
    ``@``) and in-place updates cut the interpreter overhead. Keep the
    arithmetic and its order as they are; recorded runs pin exact inner
    iteration counts. The third value is O^T w, which the hull oracle's
    gradient and the next warm start reuse.
    """
    return _q_at(data, data.O.T.dot(w), x)


def _q_at(data: ScenarioData, Otw: np.ndarray,
          x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``inner_q_value_grad`` at the point w with O^T w = ``Otw``."""
    resid = Otw - data.theta_bar
    value = float(Otw.dot(x)) - data.half_sigma * float(resid.dot(resid))
    # x - sigma * resid to the bit: (-s) * r == -(s * r) and x + (-y) == x - y
    resid *= -data.sigma
    resid += x
    return value, data.O.dot(resid), Otw


@dataclass
class InnerState:
    """Warm-start snapshot for the inner solver (owned by one outer run):
    the last inner solution w and, when known, O^T w at it."""

    w: np.ndarray | None = None
    Otw: np.ndarray | None = None


@dataclass(frozen=True)
class InnerResult:
    w: np.ndarray
    Otw: np.ndarray             # O^T w at the returned w
    value: float                # q(w; x) at the returned w
    gap: float
    work: int
    converged: bool


def fista_inner(data: ScenarioData, x: np.ndarray, delta_target: float,
                warm_start: InnerState | None = None) -> InnerResult:
    """Maximize q(.; x) over the simplex until the certified gap <= target.

    The momentum uses the strongly-concave constant when the scenario Gram
    matrix is well conditioned, the standard accelerating sequence otherwise.
    The certified gap is the tightest linearization upper bound collected so
    far minus the current value; reaching it guarantees the inner criterion.
    """
    if not delta_target > 0.0:  # NaN fails too
        raise OracleError("delta_target must be > 0")
    if warm_start is not None and warm_start.w is not None:
        # w is never written in place, so the warm start needs no copy
        w, carried = warm_start.w, warm_start.Otw
    else:
        w, carried = np.full(data.n, 1.0 / data.n), None
    step, beta_const = data.fista_constants

    # The loop is the oracle's hot path. Every rewrite below is exact:
    # g[g.argmax()] is g.max(), an `if` is min(), and the in-place updates
    # only reorder commutative operations.
    v = w_prev = w  # aliases: only fresh arrays are updated in place
    upper = math.inf
    t = 1.0
    for it in range(_MAX_INNER + 1):
        if carried is None:
            q_w, grad_w, Otw = inner_q_value_grad(data, w, x)
        else:  # the start point's O^T w, carried from the last call
            q_w, grad_w, Otw = _q_at(data, carried, x)
            carried = None
        # linearizations are global upper bounds by concavity, even off-simplex
        bound = q_w + float(grad_w[grad_w.argmax()]) - float(grad_w.dot(w))
        if bound < upper:
            upper = bound
        gap = upper - q_w
        if gap <= delta_target or it == _MAX_INNER:
            break
        if it == 0:
            grad_v = grad_w  # v = w: the first step reuses its evaluation
        else:
            q_v, grad_v, _ = inner_q_value_grad(data, v, x)
            bound = q_v + float(grad_v[grad_v.argmax()]) - float(grad_v.dot(v))
            if bound < upper:
                upper = bound
        grad_v *= step  # v + step * grad_v
        grad_v += v
        w = project_simplex(grad_v)
        if beta_const is not None:
            beta = beta_const
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            t = t_new
        v = w - w_prev  # w + beta * (w - w_prev)
        v *= beta
        v += w
        w_prev = w
    return InnerResult(w=w, Otw=Otw, value=q_w, gap=gap, work=it,
                       converged=gap <= delta_target)


def hull_oracle(data: ScenarioData, x: np.ndarray, delta: float,
                state: InnerState) -> OracleReply:
    """Inexact value/gradient of the hull objective via the inner solver."""
    result = fista_inner(data, x, delta, warm_start=state)
    if not result.converged:
        raise InnerSolverExhausted(result.gap, delta, result.work)
    state.w, state.Otw = result.w, result.Otw
    value = 0.5 * data.mu * float(x @ x) + result.value
    grad = data.mu * x + result.Otw
    return OracleReply(value=value, gradient=grad, delta=delta,
                       inner_work=result.work)


def hull_value(data: ScenarioData, x: np.ndarray, precision: float,
               state: InnerState | None = None) -> float:
    """High-precision objective value, for gap reporting only.

    ``state`` is read as a warm start; the oracle updates a fresh state, so
    sampling leaves the run's inner iteration counts unchanged.
    """
    warm = InnerState() if state is None else InnerState(state.w, state.Otw)
    return hull_oracle(data, x, precision, warm).value
