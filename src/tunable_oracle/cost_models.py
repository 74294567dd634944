"""Oracle cost shapes h(delta) and their derivatives.

Three shapes are supported, matching the inner-solver complexities that
motivate them:

* ``power``       h(d) = d^{-r}        (r > 0), e.g. sublinear inner solvers
* ``logarithmic`` h(d) = -log(d),      linearly converging inner solvers
* ``log_squared`` h(d) = log^2(1/d),   poly-logarithmic fluctuation

All shapes are positive, strictly decreasing and convex for 0 < delta < 1
(power: for every delta > 0), with h' strictly negative and strictly
increasing there. ``CostModel.delta_max`` is the largest delta a model
admits. ``ScheduleProblem`` owns the admissible interval [m*delta_ref,
M*delta_ref] and, like the harness, requires its top below delta_max; the
noisy oracle charges a single request up to delta_max itself.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

POWER = "power"
LOGARITHMIC = "logarithmic"
LOG_SQUARED = "log_squared"

_KINDS = (POWER, LOGARITHMIC, LOG_SQUARED)


class CostModelError(ValueError):
    """Invalid cost-model input (unknown kind, argument outside range, ...)."""


@dataclass(frozen=True)
class CostModel:
    """A cost shape; the admissible interval of delta belongs to the problem."""

    kind: str
    r: float = 0.0  # exponent, meaningful for kind == "power" only

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise CostModelError(f"unknown cost kind {self.kind!r}")
        if self.kind == POWER and not (self.r > 0.0 and math.isfinite(self.r)):
            raise CostModelError("power kind requires a finite exponent r > 0")

    @property
    def delta_max(self) -> float:
        """The largest delta the cost admits: 1 for the logarithmic kinds,
        whose cost is 0 there and negative above, inf for power."""
        return math.inf if self.kind == POWER else 1.0


def _check_delta(delta) -> np.ndarray:
    d = np.asarray(delta, dtype=float)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise CostModelError("delta must be finite and > 0")
    return d


def h_eval(model: CostModel, delta):
    """Cost h(delta); delta may be a scalar or an array, finite and > 0.
    A Python or numpy float takes Python-float arithmetic, ~30x faster than
    a 0-d array; numpy's power and log can differ from it in the last bit."""
    if isinstance(delta, float):  # np.float64 is a float subclass
        d = float(delta)
        if not 0.0 < d < math.inf:  # NaN fails too
            raise CostModelError("delta must be finite and > 0")
        if model.kind == POWER:
            try:
                return d ** -model.r
            except OverflowError:  # tiny delta with large r: the cost is inf
                return math.inf
        log_d = math.log(d)
        return -log_d if model.kind == LOGARITHMIC else log_d * log_d
    d = _check_delta(delta)
    if model.kind == POWER:
        # tiny delta with large r overflows to inf, which is the right answer
        with np.errstate(over="ignore"):
            out = d ** (-model.r)
    elif model.kind == LOGARITHMIC:
        out = -np.log(d)
    else:
        out = np.log(d) ** 2
    return out if out.ndim else float(out)


def _hprime_raw(model: CostModel, d):
    """h' without argument checks."""
    if model.kind == POWER:
        return -model.r * d ** (-(model.r + 1.0))
    if model.kind == LOGARITHMIC:
        return -1.0 / d
    return 2.0 * np.log(d) / d


# W of the largest double is ~703.2 and W(x) <= log(x) for x >= e, so no
# root of a double argument lies above this
_W_MAX = math.log(sys.float_info.max)


def _w0_start(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Piecewise initial guess for W over x >= 0, written to ``w``."""
    large = x > math.e
    # Asymptotic guess for large arguments.
    lx = np.log(x[large])
    w[large] = lx - np.log(lx)
    # A rational guess is plenty on [0, e].
    xm = x[~large]
    w[~large] = xm / (1.0 + xm * np.exp(-xm))
    return w


def lambert_w0(x, guess=None):
    """Principal branch of the Lambert W function, w*exp(w) = x, for x >= 0.

    Halley iteration on f(w) = w - x*exp(-w); each element stops once
    |f| <= 4*eps*w*(1 + w), a few ulps of w, and keeps that value, so it
    does not depend on the rest of the array. CostModelError if 50 steps
    fall short. Accepts scalars and arrays; iterates in place on work arrays
    like ``x``.

    The start is ``guess`` (shaped like ``x``, clamped to [0, log(largest
    double)]) and a piecewise guess where it is NaN; no guess is an all-NaN
    guess. A float64 array ``guess`` is iterated in place and holds the
    result on return. Precondition: a guess within 1 of the root converges
    in a few steps; from farther above, the first step falls near 0 and the
    iteration climbs about 2 per step, so it can run out of steps.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise CostModelError("lambert_w0 requires finite x >= 0")
    xv = np.atleast_1d(xs)

    if guess is None:
        guess = np.full(xv.shape, math.nan)
    w = np.atleast_1d(np.asarray(guess, dtype=float))
    if w.shape != xv.shape:
        raise CostModelError("lambert_w0 guess must be shaped like x")
    # w >= 0 keeps u = x*exp(-w) <= x below; the cap keeps the stop test
    # from passing far above the root
    np.clip(w, 0.0, _W_MAX, out=w)
    cold = np.isnan(w)
    if cold.all():
        _w0_start(xv, w)
    elif cold.any():
        xc = xv[cold]
        w[cold] = _w0_start(xc, np.empty_like(xc))
    del cold

    u, f, den, tol = (np.empty_like(w) for _ in range(4))
    done = np.empty(w.shape, dtype=bool)
    for _ in range(50):
        # u = x*exp(-w) <= x while w >= 0, and u ~ w near the root, so no
        # term below can overflow from a start within the precondition
        np.negative(w, out=u)
        np.exp(u, out=u)
        u *= xv
        np.subtract(w, u, out=f)
        np.add(w, 1.0, out=tol)
        tol *= w
        tol *= 4.0 * 2.0**-52
        np.less_equal(np.abs(f, out=den), tol, out=done)
        if done.all():
            break
        # Halley step f / ((1 + u) + f*u / (2*(1 + u))), zero where done
        np.add(u, 1.0, out=den)
        u *= f
        u /= den
        u *= 0.5
        den += u
        f /= den
        f[done] = 0.0
        w -= f
    else:
        raise CostModelError("lambert_w0 did not converge in 50 Halley steps")
    return w.reshape(xs.shape) if xs.ndim else float(w[0])
