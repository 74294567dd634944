"""Oracle cost shapes h(delta) and their derivatives.

Three shapes are supported, matching the inner-solver complexities that
motivate them:

* ``power``       h(d) = d^{-r}        (r > 0), e.g. sublinear inner solvers
* ``logarithmic`` h(d) = -log(d),      linearly converging inner solvers
* ``log_squared`` h(d) = log^2(1/d),   poly-logarithmic fluctuation

All shapes are positive, strictly decreasing and convex for 0 < delta < 1
(power: for every delta > 0), with h' strictly negative and strictly
increasing there. The admissible interval [m*delta_ref, M*delta_ref] is not
part of a cost model: ``ScheduleProblem`` owns it, and it alone requires
M*delta_ref < 1 for the logarithmic shapes.
"""

from __future__ import annotations

import math
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


def _check_delta(delta) -> np.ndarray:
    d = np.asarray(delta, dtype=float)
    if np.any(d <= 0.0) or not np.all(np.isfinite(d)):
        raise CostModelError("delta must be finite and > 0")
    return d


def h_eval(model: CostModel, delta):
    """Cost h(delta); delta may be a scalar or an array, finite and > 0."""
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


def lambert_w0(x):
    """Principal branch of the Lambert W function, w*exp(w) = x, for x >= 0.

    Halley iteration from a piecewise initial guess until the relative
    residual is below 1e-14 or, where rounding alone leaves more (x > ~1e20),
    below that of a w one ulp from W; CostModelError if 50 steps fall short.
    Accepts scalars and arrays; iterates in place on work arrays like ``x``.
    """
    xs = np.asarray(x, dtype=float)
    if np.any(xs < 0.0) or not np.all(np.isfinite(xs)):
        raise CostModelError("lambert_w0 requires finite x >= 0")
    xv = np.atleast_1d(xs)

    w = np.empty_like(xv)
    large = xv > math.e
    # Asymptotic guess for large arguments.
    lx = np.log(xv[large])
    w[large] = lx - np.log(lx)
    # A rational guess is plenty on [0, e].
    xm = xv[~large]
    w[~large] = xm / (1.0 + xm * np.exp(-xm))
    del lx, xm, large

    # One ulp of w moves w*exp(w) by up to (w+1) ulps of x, past the 1e-14
    # test above x ~ 1e20; and above 2**1020 the Halley terms overflow unless
    # x and exp(w) are scaled below it, by one power of two (so exactly).
    scale = math.ldexp(1.0, min(0, 1020 - math.frexp(xv.max(initial=0.0))[1]))
    tol = np.maximum((w + 3.0) * 2.2e-16, 1e-14) * np.maximum(xv, 1.0) * scale
    xv = xv * scale
    ew, f, wp1, corr = (np.empty_like(w) for _ in range(4))
    for _ in range(50):
        np.exp(w, out=ew)
        ew *= scale
        np.multiply(w, ew, out=f)
        f -= xv
        np.abs(f, out=corr)
        if np.all(corr <= tol):
            break
        # Halley step f / (ew*(w+1) - (w+2)*f / (2*(w+1))); w + 1 > 0 for x >= 0
        np.add(w, 1.0, out=wp1)
        np.add(w, 2.0, out=corr)
        corr *= f
        corr /= wp1
        corr *= 0.5
        np.multiply(ew, wp1, out=wp1)
        wp1 -= corr                      # the denominator
        np.divide(f, wp1, out=corr)
        w -= corr
    else:
        raise CostModelError("lambert_w0 did not converge in 50 Halley steps")
    return w.reshape(xs.shape) if xs.ndim else float(w[0])
