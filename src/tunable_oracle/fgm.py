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
    if not np.isfinite(v).all():
        raise FgmError("cannot project a non-finite vector")
    u = v.copy()
    u.sort()
    u = u[::-1]
    css = u.cumsum()
    css -= 1.0
    cond = u - css / _ranks(v.size) > 0.0
    nonzero = cond.nonzero()[0]
    if nonzero.size == 0:
        # u[0] - (u[0] - 1) rounds to 0 once |u[0]| outgrows double resolution
        raise FgmError("no rank qualifies: the entries are too large for the "
                       "unit sum to register in double precision")
    rho = int(nonzero[-1])
    tau = css[rho] / (rho + 1.0)
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
            observer: Callable[[int, np.ndarray], None] | None = None,
            ) -> tuple[np.ndarray, list[IterationRecord]]:
    """Run N accelerated steps from the simplex point x0.

    ``oracle(point, delta_request)`` must return an object with attributes
    value, gradient, delta (certified inexactness) and inner_work.
    ``schedule(k, A_next_candidate)`` returns the inexactness to request; the
    candidate certificate lets online rules react to the accepted stepsizes.
    ``observer(k, x_new)``, when given, is called after each accepted step.

    With ``adaptive`` off every step uses the inverse stepsize ``L``. With it
    on, ``L`` is the first estimate and also the ceiling: a failed validation
    doubles the estimate up to it, and the ceiling is accepted without a
    test, so each search stops after finitely many retries. No estimate
    below ``mu`` is tried.
    """
    if not 0.0 < L < math.inf or mu < 0.0:
        raise FgmError("need a finite L > 0 and mu >= 0")
    x = np.asarray(x0, dtype=float).copy()
    if not np.isfinite(x).all() or abs(x.sum() - 1.0) > 1e-9 or np.any(x < -1e-12):
        raise FgmError("x0 must lie in the unit simplex")
    z = x.copy()
    A = 0.0
    weighted_delta = 0.0  # sum of A_{k+1} delta_k
    trajectory: list[IterationRecord] = []
    L_next = L

    for k in range(N):
        if adaptive:
            # a mu-strongly convex objective has curvature >= mu
            L_try = min(max(L_next / _INCREASE, mu, 1e-300), L)
        else:
            L_try = L
        omega_k = 0.0
        retries = 0
        while True:
            A_next = next_certificate(A, L_try, mu)
            if not math.isfinite(A_next):
                raise FgmError(f"certificate overflow at iteration {k}")
            alpha = (A_next - A) / A_next
            y = (1.0 - alpha) * x + alpha * z
            delta_k = float(schedule(k, A_next))
            reply_y = oracle(y, delta_k)
            omega_k += reply_y.inner_work
            coef = (A_next - A) / (1.0 + mu * A_next)
            z_new = project_simplex(z - coef * (reply_y.gradient + mu * (z - y)))
            x_new = (1.0 - alpha) * x + alpha * z_new
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
        if observer is not None:
            observer(k, x)
        L_next = L_try
        weighted_delta += A_next * reply_y.delta
        trajectory.append(IterationRecord(
            k=k, delta=delta_k, omega=omega_k, L=L_try, A=A,
            bound=(r2_estimate + 2.0 * weighted_delta) / A, retries=retries))
    return x, trajectory
