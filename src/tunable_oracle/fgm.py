"""Fast gradient method over the unit simplex with inexact first-order
information, in fixed-step and adaptive (line-search) variants.

The update is the method of similar triangles: the extrapolation point mixes
the primal iterate with an aggregation point, the oracle is queried at the
extrapolation point, and the aggregation point takes a projected step. The
worst-case bound (R^2 + 2 sum A_{k+1} delta_k) / A_N is kept as a running
sum over the oracle-certified inexactness values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .certificates import next_certificate


class FgmError(RuntimeError):
    pass


# adaptive line search: the next iteration first tries L / _INCREASE, and a
# failed validation retries with L * _DECREASE
_INCREASE = 1.5
_DECREASE = 2.0


@dataclass(frozen=True)
class IterationRecord:
    k: int
    delta: float
    omega: float
    L: float
    A: float
    bound: float
    retries: int = 0


@functools.lru_cache(maxsize=8)
def _ranks(n: int) -> np.ndarray:
    """The read-only ranks 1..n; a run projects at two sizes only (d and n)."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}.

    The inner solver's hot path: ndarray methods and in-place shifts cut the
    interpreter overhead. Keep the arithmetic and its order as they are;
    recorded runs pin exact inner iteration counts.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise FgmError(f"can only project a 1-D vector, got shape {v.shape}")
    n = v.size
    if n == 0:
        raise FgmError("cannot project an empty vector")
    u = v.copy()
    u.sort()
    # NaN sorts last and -inf first, so the two ends decide finiteness
    if not (math.isfinite(u[0]) and math.isfinite(u[-1])):
        raise FgmError("cannot project a non-finite vector")
    u = u[::-1]
    thresholds = np.add.accumulate(u)  # u.cumsum() without the method dispatch
    thresholds -= 1.0
    thresholds /= _ranks(n)  # (u_1 + ... + u_k - 1) / k for rank k
    # u - t > 0 exactly when u > t: an IEEE difference has the exact sign
    cond = u > thresholds
    rho = n - 1 - int(cond[::-1].argmax())  # the last qualifying rank
    if not cond[rho]:
        # u[0] - (u[0] - 1) rounds to 0 once |u[0]| outgrows double resolution
        raise FgmError("no rank qualifies: the entries are too large for the "
                       "unit sum to register in double precision")
    tau = thresholds[rho]
    if not math.isfinite(tau):
        # the running sum of entries near -1e308 overflows
        raise FgmError("the entries are too large in magnitude to sum in "
                       "double precision")
    out = v - tau
    np.maximum(out, 0.0, out=out)
    return out


def line_search_validate(f_y: float, grad_y: np.ndarray, f_x_next: float,
                         x_next: np.ndarray, y: np.ndarray,
                         L_candidate: float, delta_k: float) -> bool:
    """Quadratic-model test with the 2*delta_k inexactness slack."""
    diff = x_next - y
    model = f_y + float(grad_y @ diff) + 0.5 * L_candidate * float(diff @ diff)
    return f_x_next <= model + 2.0 * delta_k + 1e-12 * max(1.0, abs(f_y))


def fgm_run(oracle: Callable[[np.ndarray, float], "object"],
            schedule: Callable[[int, float], float],
            N: int,
            x0: np.ndarray,
            L: float,
            mu: float = 0.0,
            adaptive: bool = False,
            r2_estimate: float = 0.0,
            observer: Callable[[IterationRecord, np.ndarray], None] | None = None,
            ) -> tuple[np.ndarray, list[IterationRecord]]:
    """Run N accelerated steps from the simplex point x0.

    ``oracle(point, delta_request)`` must return an object with attributes
    value, gradient, delta (certified inexactness) and inner_work.
    ``schedule(k, A_next_candidate)`` returns the inexactness to request; the
    candidate certificate lets online rules react to the accepted stepsizes.
    ``observer(record, x_new)``, when given, is called with each accepted
    step's record and iterate.

    With ``adaptive`` off every step uses the inverse stepsize ``L``. With it
    on, ``L`` is the first estimate and also the ceiling: a failed validation
    doubles the estimate up to it. At the ceiling the validation call is
    still made and its work charged, but the step is accepted whatever it
    says, so each search stops after finitely many retries. No estimate
    below ``mu`` is tried.

    ``L`` must be finite and positive and ``mu`` finite and nonnegative. A
    request that is NaN or negative raises ``FgmError`` before it reaches
    the oracle; any other request, +inf included, is passed on as it is.
    """
    if not 0.0 < L < math.inf:
        raise FgmError(f"need a finite L > 0, got L = {L!r}")
    if not 0.0 <= mu < math.inf:  # NaN fails too
        raise FgmError(f"need a finite mu >= 0, got mu = {mu!r}")
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise FgmError(f"x0 must be a 1-D vector, got shape {x.shape}")
    if not np.isfinite(x).all() or abs(x.sum() - 1.0) > 1e-9 or np.any(x < -1e-12):
        raise FgmError("x0 must lie in the unit simplex")
    z = x.copy()
    A = 0.0
    weighted_delta = 0.0  # sum of A_{k+1} delta_k
    trajectory: list[IterationRecord] = []
    L_try = L  # the fixed step, or the last accepted estimate

    for k in range(N):
        if adaptive:
            # a mu-strongly convex objective has curvature >= mu
            L_try = min(max(L_try / _INCREASE, mu, 1e-300), L)
        omega_k = 0.0
        retries = 0
        while True:
            A_next = next_certificate(A, L_try, mu)
            if not math.isfinite(A_next):
                raise FgmError(f"certificate overflow at iteration {k}")
            alpha = (A_next - A) / A_next
            x_part = (1.0 - alpha) * x  # shared by y and x_new
            y = x_part + alpha * z
            delta_k = float(schedule(k, A_next))
            if not delta_k >= 0.0:  # NaN fails too; +inf reaches the oracle
                raise FgmError(f"the schedule requested delta = {delta_k!r} "
                               f"at iteration {k}; need delta >= 0")
            reply_y = oracle(y, delta_k)
            omega_k += reply_y.inner_work
            coef = (A_next - A) / (1.0 + mu * A_next)
            grad = reply_y.gradient
            if mu:  # at mu = 0 the term is +-0, which can flip only a zero's sign
                grad = grad + mu * (z - y)
            z_new = project_simplex(z - coef * grad)
            x_new = x_part + alpha * z_new
            if not adaptive:
                break
            reply_x = oracle(x_new, delta_k)
            omega_k += reply_x.inner_work
            ok = line_search_validate(reply_y.value, reply_y.gradient,
                                      reply_x.value, x_new, y, L_try, delta_k)
            if ok or L_try >= L:
                break
            retries += 1
            L_try = min(L_try * _DECREASE, L)
        x, z, A = x_new, z_new, A_next
        weighted_delta += A_next * reply_y.delta
        record = IterationRecord(
            k=k, delta=delta_k, omega=omega_k, L=L_try, A=A,
            bound=(r2_estimate + 2.0 * weighted_delta) / A, retries=retries)
        trajectory.append(record)
        if observer is not None:
            observer(record, x)
    return x, trajectory
