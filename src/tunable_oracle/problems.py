"""Test problems and oracles: the softmax-smoothed robust objective with
synthetic gradient noise, and robust optimization over the convex hull of
scenarios where a FISTA inner solver makes oracle inexactness genuinely
costly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .cost_models import CostModel, h_eval
from .fgm import BlockReply, project_simplex


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
        if not (self.delta >= 0.0 and self.inner_work >= 0.0):  # NaN fails too
            raise OracleError("delta and inner_work must be >= 0")


# ---------------------------------------------------------------------------
# softmax objective with synthetic noise
# ---------------------------------------------------------------------------

def softmax_value_grad(data: ScenarioData, x: np.ndarray) -> tuple[float, np.ndarray]:
    """Smoothed robust objective (smoothing parameter 1) and its gradient,
    overflow safe; at a (B, d) block x, its rows' values and gradients.

    ``s[s.argmax()]`` is ``s.max()`` and ``np.add.reduce`` is the pairwise
    sum of ``e.sum()``, each without the method's dispatch overhead.
    """
    if x.ndim == 2:  # stacked products keep each row's bits of O @ x; O @ X.T need not
        s = np.matmul(data.O, x[:, :, None])[:, :, 0]
        mx = np.maximum.reduce(s, 1)
        e = np.exp(s - mx[:, None])
        denom = np.add.reduce(e, 1)
        value = [m + math.log(t / data.n) for m, t in zip(mx.tolist(), denom.tolist())]
        grad = np.matmul(data.O.T, (e / denom[:, None])[:, :, None])[:, :, 0]
        if data.mu:  # x @ x of each row
            sq = np.matmul(x[:, None, :], x[:, :, None]).ravel().tolist()
            value = [v + 0.5 * data.mu * q for v, q in zip(value, sq)]
    else:
        s = data.O @ x
        mx = float(s[s.argmax()])
        e = np.exp(s - mx)
        denom = float(np.add.reduce(e))
        value = mx + math.log(denom / data.n)
        grad = data.O.T @ (e / denom)
        if data.mu:
            value += 0.5 * data.mu * float(x @ x)
    # at mu = 0 each term adds a zero, which can change only a zero's sign
    if data.mu:
        grad += data.mu * x
    return value, grad


def noisy_oracle(data: ScenarioData, X: np.ndarray, deltas: list,
                 rngs: list, cost: CostModel) -> BlockReply:
    """Exact values, gradients corrupted on spheres of radius ALPHA*delta, at
    the rows of the (B, d) block X, with ``deltas`` and ``rngs`` each row's
    request and noise stream; each row has the bits of a block of it alone.

    A row's certified inexactness is 4*ALPHA*delta and its simulated work
    ``h_eval(cost, delta)``, zero for an exact request, which draws no noise.
    A negative, NaN, infinite or above-``cost.delta_max`` request is refused
    before any draw (the log cost would charge a negative amount above it).
    """
    for request in deltas:
        if not 0.0 <= request < math.inf:  # NaN fails too
            raise OracleError(f"need a finite delta >= 0, got delta = {request!r}")
        if request > cost.delta_max:
            raise OracleError(f"the {cost.kind} cost needs delta <= {cost.delta_max:g}, "
                              f"got delta = {request!r}")
    value, grad = softmax_value_grad(data, X)
    noisy = [i for i, request in enumerate(deltas) if request > 0.0]
    if noisy:
        u = np.empty((len(noisy), X.shape[1]))
        for row, i in zip(u, noisy):
            rngs[i].standard_normal(out=row)
        u /= np.sqrt(np.matmul(u[:, None, :], u[:, :, None]))[:, 0]  # norm(u) to the bit
        u *= ALPHA * np.array([deltas[i] for i in noisy])[:, None]
        # a slice where every row is noisy costs less than the fancy index
        grad[noisy if len(noisy) < len(deltas) else slice(None)] += u
    # one charge per distinct request: the runs of a family ask alike
    work = {request: h_eval(cost, request) if request > 0.0 else 0.0 for request in set(deltas)}
    return BlockReply(value, grad, [4.0 * ALPHA * request for request in deltas],
                      [work[request] for request in deltas])


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
                warm_start: InnerState) -> InnerResult:
    """Maximize q(.; x) over the simplex until the certified gap <= target,
    from ``warm_start`` (a cold start is ``InnerState()``).

    The momentum uses the strongly-concave constant when the scenario Gram
    matrix is well conditioned, the standard accelerating sequence otherwise.
    The certified gap is the tightest linearization upper bound collected so
    far minus the current value; reaching it guarantees the inner criterion.
    """
    if not delta_target > 0.0:  # NaN fails too
        raise OracleError("delta_target must be > 0")
    if warm_start.w is not None:
        # w is never written in place, so the warm start needs no copy
        w, carried = warm_start.w, warm_start.Otw
    else:
        w, carried = np.full(data.n, 1.0 / data.n), None
    return _fista_from(data, x, delta_target, 0, w, carried, w, math.inf, 1.0)


def _fista_from(data: ScenarioData, x: np.ndarray, delta_target: float, it0: int,
                w: np.ndarray, carried: np.ndarray | None, v: np.ndarray,
                upper: float, t: float) -> InnerResult:
    """``fista_inner``'s loop from the top of iteration ``it0``: at the
    iterate w (O^T w ``carried``, or None), the extrapolation point v (w at
    iteration 0), the best bound ``upper`` so far and the momentum t."""
    step, beta_const = data.fista_constants

    # The loop is the oracle's hot path. Every rewrite below is exact:
    # g[g.argmax()] is g.max(), an `if` is min(), and the in-place updates
    # only reorder commutative operations.
    w_prev = w  # aliases: only fresh arrays are updated in place
    for it in range(it0, _MAX_INNER + 1):
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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] @ b[i] for each row i, each with the bits of the 1-D dot."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _q_rows(data: ScenarioData, Otw: np.ndarray,
            X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_q_at`` at each row: the values and gradients at the points whose
    O^T w are the rows of ``Otw``, each with the bits of the row alone."""
    resid = Otw - data.theta_bar
    value = _row_dots(Otw, X) - data.half_sigma * _row_dots(resid, resid)
    resid *= -data.sigma
    resid += X
    return value, np.matmul(data.O, resid[:, :, None])[:, :, 0]


class InnerRows(NamedTuple):
    """The inner solver's results over a block, one entry or row per row."""

    w: np.ndarray               # (B, n)
    Otw: np.ndarray             # (B, d)
    value: list
    gap: list
    work: list
    converged: list


# the fewest rows that iterate as a block: with fewer, the stacked calls cost
# more than the per-row calls they replace. At (n, d) = (100, 200) on one BLAS
# thread a row-iteration takes 28-29 us alone, 30 us in a block of 3 rows and
# 26 us in a block of 4.
_BLOCK_ROWS = 4


def fista_rows(data: ScenarioData, X: np.ndarray, targets: list,
               states: list) -> InnerRows:
    """``fista_inner`` at each row of the (B, d) block X, with ``targets``
    and ``states`` each row's target and warm start: every row gets the bits
    of its solve alone.

    The rows step together while at least ``_BLOCK_ROWS`` of them iterate,
    and the last few finish one at a time on the per-row loop. The block's
    products are stacked matrix-vector and vector-vector products
    (``np.matmul`` over the rows), which keep each row's bits, where
    ``W @ O`` would not; its projection is the block projection; and its
    momentum is shared, as it depends on the iteration count only. A row
    leaves the block once it meets its target.
    """
    for target in targets:
        if not target > 0.0:  # NaN fails too
            raise OracleError("delta_target must be > 0")
    B, n = len(X), data.n
    step, beta_const = data.fista_constants
    Ot = data.O.T
    out_w, out_Otw = np.empty((B, n)), np.empty((B, X.shape[1]))
    value, gap, work, converged = [0.0] * B, [0.0] * B, [0] * B, [False] * B

    W = np.array([np.full(n, 1.0 / n) if state.w is None else state.w for state in states])
    cold = [i for i, state in enumerate(states) if state.w is None or state.Otw is None]
    if cold:  # the start's products: carried, and formed for the cold rows
        Otw = np.empty_like(out_Otw)
        for i, state in enumerate(states):
            if i not in cold:
                Otw[i] = state.Otw
        Otw[cold] = np.matmul(Ot, W[cold][:, :, None])[:, :, 0]
    else:
        Otw = np.array([state.Otw for state in states])
    rows = list(range(B))  # the block rows still iterating
    tgt = np.array(targets, dtype=float)
    upper = np.full(B, math.inf)
    V = W
    t = 1.0
    for it in range(_MAX_INNER + 1):
        if len(rows) < _BLOCK_ROWS:  # too few rows left to gain from stacking
            for j, i in enumerate(rows):
                r = _fista_from(data, X[j], float(tgt[j]), it, W[j],
                                Otw[j] if it == 0 else None, V[j], float(upper[j]), t)
                out_w[i], out_Otw[i] = r.w, r.Otw
                value[i], gap[i], work[i], converged[i] = r.value, r.gap, r.work, r.converged
            break
        if it:
            Otw = np.matmul(Ot, W[:, :, None])[:, :, 0]
        q_w, G = _q_rows(data, Otw, X)
        bound = q_w + np.maximum.reduce(G, 1) - _row_dots(G, W)
        upper = np.where(bound < upper, bound, upper)
        gaps = upper - q_w
        met = (gaps <= tgt).tolist()
        done = [True] * len(rows) if it == _MAX_INNER else met
        if True in done:
            keep = []
            for j, (i, q, g, ok, out) in enumerate(zip(rows, q_w.tolist(), gaps.tolist(),
                                                       met, done)):
                if out:
                    out_w[i], out_Otw[i] = W[j], Otw[j]
                    value[i], gap[i], work[i], converged[i] = q, g, it, ok
                else:
                    keep.append(j)
            if not keep:
                break
            rows = [rows[j] for j in keep]
            X, W, V, G, upper, tgt = (a.take(keep, 0) for a in (X, W, V, G, upper, tgt))
        if it == 0:
            G_v = G  # V = W: the first step reuses its evaluation
        else:
            q_v, G_v = _q_rows(data, np.matmul(Ot, V[:, :, None])[:, :, 0], X)
            bound = q_v + np.maximum.reduce(G_v, 1) - _row_dots(G_v, V)
            upper = np.where(bound < upper, bound, upper)
        G_v *= step
        G_v += V
        W_new = project_simplex(G_v)
        if beta_const is not None:
            beta = beta_const
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            t = t_new
        V = W_new - W
        V *= beta
        V += W_new
        W = W_new
    return InnerRows(out_w, out_Otw, value, gap, work, converged)


def hull_oracle(data: ScenarioData, X: np.ndarray, deltas: list,
                states: list) -> BlockReply:
    """Inexact values and gradients of the hull objective at the rows of the
    (B, d) block X, with ``deltas`` and ``states`` each row's request and
    warm start, which the reply's solution replaces; each row has the bits
    of a block of it alone.

    A row's certified inexactness is the inner gap its solve achieved, at
    most its request (a gap that rounds below 0 counts as 0), and its work
    the inner iterations. A block of rows solves with ``fista_rows``, a
    block of one row with ``fista_inner``. A row that runs out of inner
    iterations raises ``InnerSolverExhausted``.
    """
    if len(X) > 1:
        got = fista_rows(data, X, deltas, states)
    else:
        r = fista_inner(data, X[0], deltas[0], states[0])
        got = InnerRows([r.w], r.Otw[None], [r.value], [r.gap], [r.work], [r.converged])
    for ok, gap, delta, work in zip(got.converged, got.gap, deltas, got.work):
        if not ok:
            raise InnerSolverExhausted(gap, delta, work)
    for state, w, Otw in zip(states, got.w, got.Otw):
        state.w, state.Otw = w, Otw
    sq = 0.5 * data.mu * _row_dots(X, X)
    value = [s + q for s, q in zip(sq.tolist(), got.value)]
    return BlockReply(value, data.mu * X + got.Otw, [max(gap, 0.0) for gap in got.gap],
                      got.work)


def hull_value(data: ScenarioData, X: np.ndarray, precision: float,
               states: list) -> list:
    """High-precision objective values at the rows of X, for gap reporting
    only.

    ``states`` are read as warm starts (cold: ``InnerState()``); the oracle
    updates copies, so sampling leaves the runs' inner iteration counts
    unchanged.
    """
    return hull_oracle(data, X, [precision] * len(X),
                       [InnerState(state.w, state.Otw) for state in states]).value
