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
import numbers
from typing import Callable, NamedTuple

import numpy as np

from .certificates import next_certificate


class FgmError(RuntimeError):
    pass


# adaptive line search: the next iteration first tries L / _INCREASE, and a
# failed validation retries with L * _DECREASE
_INCREASE = 1.5
_DECREASE = 2.0


class IterationRecord(NamedTuple):  # a tuple builds faster than a frozen dataclass
    k: int
    delta: float
    omega: float
    L: float
    A: float
    bound: float
    retries: int = 0


class BlockReply(NamedTuple):  # an oracle's reply to a block, one entry per row
    value: list
    gradient: np.ndarray
    delta: list
    inner_work: list


@functools.lru_cache(maxsize=8)
def _ranks(n: int) -> np.ndarray:
    """The read-only ranks 1..n; a run projects at two sizes only (d and n)."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def project_simplex(v: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1}, of a vector or of each
    row of a non-empty 2-D block.

    The inner solver's hot path: ndarray methods and in-place shifts cut the
    interpreter overhead. Keep the arithmetic and its order as they are;
    recorded runs pin exact inner iteration counts.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        if v.ndim == 2 and v.size:
            return _project_rows(v)
        raise FgmError(f"can only project a non-empty 2-D block or a 1-D vector, "
                       f"got shape {v.shape}")
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


def _project_rows(v: np.ndarray) -> np.ndarray:
    """The vector projection's arithmetic along each row of v, with its bits.
    One row, or a block that fails a check, goes through the vector call row
    by row, so that a bad row raises with that call's message."""
    if len(v) == 1:
        return _vector(v[0])[None]
    u = v.copy()
    u.sort()
    n = u.shape[1]
    # NaN sorts last and -inf first: the least first and the largest last
    # entry are finite exactly when every entry is
    if math.isfinite(np.minimum.reduce(u[:, 0])) and math.isfinite(np.maximum.reduce(u[:, -1])):
        u = u[:, ::-1]
        thresholds = np.add.accumulate(u, 1)
        thresholds -= 1.0
        thresholds /= _ranks(n)
        at_rho = (np.arange(len(u)), n - 1 - (u > thresholds)[:, ::-1].argmax(1))
        tau = thresholds[at_rho]
        if np.count_nonzero(u[at_rho] > tau) == len(u) and np.isfinite(tau).all():
            return np.maximum(v - tau[:, None], 0.0)
    return np.array([_vector(row) for row in v])


# the vector call under a second name, so that a wrapper swapped in at
# project_simplex sees one call per block
_vector = project_simplex


def _check_reply(reply: BlockReply, k: int):
    """Refuse a NaN or negative certified delta or work of a block reply,
    before it reaches the bound or the work sums."""
    for name, values in (("delta", reply.delta), ("work", reply.inner_work)):
        # a NaN entry makes the sum NaN; without one, the least entry decides
        if not (min(values) >= 0.0 and sum(values) >= 0.0):
            value = next(v for v in values if not v >= 0.0)
            raise FgmError(f"the oracle certified {name} = {value!r} at "
                           f"iteration {k}; need {name} >= 0")


def line_search_validate(f_y: float, grad_y: np.ndarray, f_x_next: float,
                         x_next: np.ndarray, y: np.ndarray,
                         L_candidate: float, delta_k: float) -> bool:
    """Quadratic-model test with the 2*delta_k inexactness slack."""
    diff = x_next - y
    model = f_y + float(grad_y @ diff) + 0.5 * L_candidate * float(diff @ diff)
    return f_x_next <= model + 2.0 * delta_k + 1e-12 * max(1.0, abs(f_y))


def fgm_run(oracle: Callable,
            schedule: Callable | list[Callable],
            N: int | list[int],
            x0: np.ndarray,
            L: float,
            mu: float = 0.0,
            adaptive: bool = False,
            r2_estimate: float = 0.0,
            observer: Callable | None = None,
            ) -> tuple[np.ndarray, list[IterationRecord]]:
    """Run N accelerated steps from the simplex point x0.

    ``oracle(point, delta_request)`` must return an object with attributes
    value, gradient, delta (certified inexactness) and inner_work.
    ``schedule(k, A_next_candidate)`` returns the inexactness to request; the
    candidate certificate lets online rules react to the accepted stepsizes.
    ``observer(record, x_new)``, when given, is called with each accepted
    step's record and iterate.

    Lists of horizons N and schedules step a block of runs together from the
    rows of x0, each with the bits it has alone. ``oracle(Y, deltas, rows)``
    answers the runs ``rows`` still stepping with a ``BlockReply``, and
    ``observer(rows, records, X_new)`` sees their steps; a run leaves after
    its N steps. The call returns the block of last iterates and the records.

    With ``adaptive`` off every step uses the inverse stepsize ``L``. With it
    on, ``L`` is the first estimate and also the ceiling: a failed validation
    doubles the estimate up to it. At the ceiling the validation call is
    still made and its work charged, but the step is accepted whatever it
    says, so each search stops after finitely many retries. No estimate
    below ``mu`` is tried. A block that searches holds one run.

    ``L`` must be finite and positive and ``mu`` finite and nonnegative. A
    request that is NaN or negative raises ``FgmError`` before it reaches
    the oracle; any other request, +inf included, is passed on as it is. A
    reply's certified delta or work that is NaN or negative raises
    ``FgmError`` too, before it reaches the bound.
    """
    if not 0.0 < L < math.inf:
        raise FgmError(f"need a finite L > 0, got L = {L!r}")
    if not 0.0 <= mu < math.inf:  # NaN fails too
        raise FgmError(f"need a finite mu >= 0, got mu = {mu!r}")
    block = not isinstance(N, numbers.Integral)
    x = np.array(x0, dtype=float)
    if x.ndim != 1 + block:
        raise FgmError(f"x0 must be a {'2-D block' if block else '1-D vector'}, "
                       f"got shape {x.shape}")
    if not block:  # a single run: the per-run lists of a block hold one entry
        schedule, N, single, see = [schedule], [N], oracle, observer
        observer = see and (lambda _rows, records, x_new: see(records[0], x_new))

        def oracle(y, deltas, _rows):
            r = single(y, deltas[0])
            return BlockReply([r.value], r.gradient, [r.delta], [r.inner_work])
    elif not len(x) == len(schedule) == len(N) or adaptive and len(x) > 1:
        raise FgmError("a block needs one start row and one schedule per horizon, "
                       "and one run to search")
    if (not np.isfinite(x).all() or np.any(np.abs(x.sum(-1) - 1.0) > 1e-9)
            or np.any(x < -1e-12)):
        raise FgmError("x0 must lie in the unit simplex")
    X, Z, ends = x, x.copy(), x.copy()  # ends: the last iterate of each run
    rows = list(range(len(N)))  # the runs still stepping
    A = 0.0
    weighted_delta = [0.0] * len(N)  # per run: sum of A_{k+1} delta_k
    trajectory: list[IterationRecord] = []
    L_try = L  # the fixed step, or the last accepted estimate

    for k in range(max(N, default=0)):
        if k in N:  # the runs that took their N steps leave the block
            ends[rows] = X
            stay = [N[row] > k for row in rows]
            rows = [row for row, on in zip(rows, stay) if on]
            X, Z = X[stay], Z[stay]
        if adaptive:
            # a mu-strongly convex objective has curvature >= mu
            L_try = min(max(L_try / _INCREASE, mu, 1e-300), L)
        omega = [0.0] * len(rows)
        retries = 0
        while True:
            A_next = next_certificate(A, L_try, mu)
            if not math.isfinite(A_next):
                raise FgmError(f"certificate overflow at iteration {k}")
            alpha = (A_next - A) / A_next
            x_part = (1.0 - alpha) * X  # shared by y and x_new
            Y = x_part + alpha * Z
            deltas = [float(schedule[row](k, A_next)) for row in rows]
            for delta_k in deltas:
                if not delta_k >= 0.0:  # NaN fails too; +inf reaches the oracle
                    raise FgmError(f"the schedule requested delta = {delta_k!r} "
                                   f"at iteration {k}; need delta >= 0")
            reply_y = oracle(Y, deltas, rows)
            _check_reply(reply_y, k)
            omega = [w + work for w, work in zip(omega, reply_y.inner_work)]
            coef = (A_next - A) / (1.0 + mu * A_next)
            grad = reply_y.gradient
            if mu:  # at mu = 0 the term is +-0, which can flip only a zero's sign
                grad = grad + mu * (Z - Y)
            Z_new = project_simplex(Z - coef * grad)
            X_new = x_part + alpha * Z_new
            if not adaptive:
                break
            reply_x = oracle(X_new, deltas, rows)
            _check_reply(reply_x, k)
            omega = [w + work for w, work in zip(omega, reply_x.inner_work)]
            ok = line_search_validate(
                reply_y.value[0], reply_y.gradient.reshape(-1), reply_x.value[0],
                X_new.reshape(-1), Y.reshape(-1), L_try, deltas[0])
            if ok or L_try >= L:
                break
            retries += 1
            L_try = min(L_try * _DECREASE, L)
        X, Z, A = X_new, Z_new, A_next
        step = []
        for row, certified, delta_k, omega_k in zip(rows, reply_y.delta, deltas, omega):
            weighted_delta[row] += A * certified
            step.append(IterationRecord(k, delta_k, omega_k, L_try, A,
                                        (r2_estimate + 2.0 * weighted_delta[row]) / A, retries))
        trajectory += step
        if observer is not None:
            observer(rows, step, X)
    if block:
        ends[rows] = X
    return (ends if block else X), trajectory
