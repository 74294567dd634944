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

Both solvers are front ends of one water-filling driver, ``_water_fill``,
after Palomar & Fonollosa (IEEE TSP 2005): one sort, a search over the
saturation breakpoints for the partition, the pinned budget, one solve of the
transient set, a box check and a clip. A front end gives only its ranking
keys, bounds, budget and residual rule. Each accuracy cost kind is one
function, ``_transient``; the work split is the linear case, lam * sum w. The
search interpolates the clipped budget in log(lam) and takes the same
decisions as a binary search, in at most ceil(log2 N) + 4 probes per side and
usually far fewer. It costs O(N log N) for the sort, plus, for the
log-squared kind, one Lambert W pass per Newton step and per probe whose sign
its block bounds leave open.

A log-squared probe needs only the sign of its excess. On a transient range
of at least _BOUND_MIN_RANKS ranks it first evaluates W at the ends of
_BOUND_BLOCKS blocks, where W rises along the ranks: the block sums of b
times the squared W at the first and last rank of each block bound the
transient cost. Where both bounds, widened by a margin derived from the
rounding of the full pass (``_transient``), fall on one side of the
remaining budget, the probe returns their midpoint without a pass.

The sort is numpy's default (quick)sort, checked for equal neighbours; only a
tie, whose order the default sort leaves open, falls back to the stable sort,
so the ranking is the stable sort's either way. The Lambert W passes of one
log-squared solve share a cache of W by rank: a pass within 1 of the previous
one in t = log(lam) starts Halley from the cached W moved to first order in
t, which leaves few steps where consecutive probes and the Newton steps sit
close, and takes none when the first Newton point repeats the last probe.

One guard, ``_in_doubles``, names any key, power weight or multiplier, W
argument or transient value outside the doubles, NaN included; a power weight
that underflows to 0 stays, unless the weights of every transient rank do.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import cost_models
from .cost_models import LOGARITHMIC, POWER, CostModel, _hprime_raw, h_eval

_REL_TOL = 1e-12
_NEWTON_STEP_TOL = 1e-14  # log(lam) step at which the log-squared Newton stops
_SEARCH_SLACK = 2  # probes a partition search may take beyond bisection's
_BOUND_BLOCKS = 256  # blocks of a log-squared probe's bounds on its cost
_BOUND_MIN_RANKS = 16 * _BOUND_BLOCKS  # smaller transient ranges take the full pass
_W_REL = 16 * 2.0**-52  # relative error of a lambert_w0 value, see _transient
_TINY, _HUGE = sys.float_info.min, sys.float_info.max


class SolverError(RuntimeError):
    """Numerical failure or invalid instance in a schedule solve."""


@dataclass(frozen=True)
class _Coefficients:
    """Impact coefficients a and cost distortions b of an instance: nonempty,
    1-d, of one length, finite and > 0."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a, b = (np.asarray(v, dtype=float) for v in (self.a, self.b))
        for name, v in (("a", a), ("b", b)):
            if v.ndim != 1 or v.size == 0:
                raise SolverError(f"{name} must be a nonempty 1-d sequence")
            if not np.all(np.isfinite(v)) or np.any(v <= 0.0):
                raise SolverError(f"{name} entries must be finite and > 0")
        if a.size != b.size:
            raise SolverError("a and b must have the same length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def size(self) -> int:
        return self.a.size


@dataclass(frozen=True)
class ScheduleProblem(_Coefficients):
    """Accuracy-controlled instance: coefficients, reference level and box."""

    delta_ref: float
    m: float
    M: float
    cost_model: CostModel

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 <= self.m < 1.0 < self.M):
            raise SolverError("bounds must satisfy 0 <= m < 1 < M")
        if not (self.delta_ref > 0.0 and math.isfinite(self.delta_ref)):
            raise SolverError("delta_ref must be finite and > 0")
        # h' of log-squared vanishes at delta_max = 1 and both log costs
        # reach 0 there; M = inf stays legal for power
        top = self.cost_model.delta_max
        if top < math.inf and not self.M * self.delta_ref < top:
            raise SolverError(f"the {self.cost_model.kind} kind needs "
                              f"M*delta_ref < {top:g}")


def accuracy_problem(a, b, delta_ref: float, m: float, M: float,
                     kind: str, r: float = 1.0) -> ScheduleProblem:
    """Convenience builder; ``r`` is read for the power kind only."""
    model = CostModel(kind, r if kind == POWER else 0.0)
    return ScheduleProblem(np.asarray(a, float), np.asarray(b, float),
                           delta_ref, m, M, model)


@dataclass(frozen=True)
class WorkProblem(_Coefficients):
    """Work-controlled instance under the power-family cost h_r (r >= 0)."""

    omega_bar: float
    omega_M: float  # per-iteration lower work bound
    omega_m: float  # per-iteration upper work bound
    r: float

    def __post_init__(self):
        super().__post_init__()
        if not (self.omega_bar > 0.0 and math.isfinite(self.omega_bar)):
            raise SolverError("omega_bar must be finite and > 0")
        if not (0.0 <= self.omega_M < self.omega_bar / self.size < self.omega_m):
            raise SolverError("need omega_M < omega_bar/N < omega_m")
        if not math.isfinite(self.r):
            raise SolverError(f"cost exponent r must be finite, got {self.r!r}")
        if self.r < 0.0:
            raise SolverError("cost exponent r must be >= 0")


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
    probes: int             # clipped-budget evaluations of the partition search


def _descending_order(nu) -> np.ndarray:
    """Indices sorting nu in descending order; ties by lower index.

    Without ties the descending order is unique, so the default (quick)sort
    finds the stable sort's permutation; the stable sort runs only when the
    sorted values hold equal neighbours.
    """
    neg = -np.asarray(nu, dtype=float)
    order = np.argsort(neg)
    ranked = neg[order]
    if (ranked[1:] == ranked[:-1]).any():
        order = np.argsort(neg, kind="stable")
    return order


def _in_doubles(x: np.ndarray, what: str, low: float, where="index", labels=None) -> np.ndarray:
    """x if it lies in [low, largest double]; else SolverError: ``what`` (with its
    verb) leaves the doubles at ``where`` k, or labels[k], k the first outside or NaN."""
    if not ((low == -math.inf or x.min() >= low) and x.max() <= _HUGE):  # NaN fails max
        k = int(np.flatnonzero(~((x >= low) & (x <= _HUGE)))[0])
        raise SolverError(f"{what} the doubles at {where} {k if labels is None else labels[k]}")
    return x


def _quotient(num, den, name: str, low=_TINY, where="index", labels=None) -> np.ndarray:
    """num / den through the guard; a key passed straight to _water_fill dies once ranked."""
    with np.errstate(over="ignore", divide="ignore"):
        return _in_doubles(num / den, f"{name} leaves", low, where, labels)


def _power_weights(a, b, r: float, name: str, labels=None) -> np.ndarray:
    """(b_k a_k^r)^(1/(r+1)), labelled by input index; only overflow and NaN fail."""
    with np.errstate(over="ignore", invalid="ignore"):
        w = (b * a**r) ** (1.0 / (r + 1.0))
    return _in_doubles(w, f"{name} leaves", -math.inf, labels=labels)


def _dot(x: np.ndarray, y: np.ndarray) -> float:
    """sum_k x_k y_k in numpy's own loop: BLAS ``@`` splits long sums across
    threads, which would make the solve's bits depend on the thread count."""
    return float(np.einsum("i,i->", x, y))


def reference_budget(p: ScheduleProblem) -> float:
    """Total modeled cost of the constant reference schedule."""
    return float(np.sum(p.b) * h_eval(p.cost_model, p.delta_ref))


# ---------------------------------------------------------------------------
# water-filling kernel
# ---------------------------------------------------------------------------

def _span(prefix: np.ndarray, i: int, j: int) -> float:
    """Sum over ranks [i, j) from inclusive prefix sums."""
    return float(prefix[j - 1] - (prefix[i - 1] if i else 0.0)) if j > i else 0.0


def _log(lam: float) -> float:
    """log(lam), with -inf for a breakpoint that underflows to 0."""
    return math.log(lam) if lam > 0.0 else -math.inf


def _saturation_counts(n: int, key, c_hi: float, c_lo: float,
                       excess) -> tuple[int, int, int]:
    """Bound partition (n_plus, n_minus) of a water-filling along its ranking,
    and the number of excess probes that found it.

    Rank j is loose for multipliers lam <= key(j) * c_hi and tight for
    lam >= key(j) * c_lo, with key non-increasing in j and
    0 <= c_hi < c_lo <= inf. ``excess(lam, i, j)``, the clipped budget minus
    its target with ranks [0, i) loose and [j, n) tight, grows with lam. So
    rank j is loose at the solution iff the excess at its loose breakpoint is
    >= 0, and tight iff it is <= 0 at its tight breakpoint: one search per
    side for the first rank where that fails (holds). Each search first probes
    the end that would leave its set empty, then the far end, where every rank
    is loose (tight) and no transient solve is needed, then at most
    ceil(log2 n) + _SEARCH_SLACK ranks in between.
    """
    probes = 0

    def probe(lam):
        nonlocal probes
        probes += 1
        i = bisect.bisect_left(range(n), True, key=lambda j: key(j) * c_hi < lam)
        j = bisect.bisect_left(range(n), True, key=lambda j: key(j) * c_lo <= lam)
        return excess(lam, i, max(i, j))

    def first_true(c, holds, lo, hi, lo_sample, hi_sample):
        """First rank in (lo, hi] whose excess at key * c ``holds``, given
        (log breakpoint, excess) samples where it fails (at or before rank
        lo) and holds (at or after rank hi).

        Regula falsi in the log breakpoint, with the Anderson-Bjorck weight
        on the end a probe does not move, picks each probe's rank by a
        bisection over the keys, which costs no probe. As in ITP (Oliveira &
        Takahashi, ACM TOMS 2020) that rank is then projected so that,
        whatever the probe finds, the bracket still closes within
        ceil(log2(hi - lo)) + _SEARCH_SLACK probes."""
        samples = [lo_sample, hi_sample]  # indexed by holds(excess)
        left = (hi - lo - 1).bit_length() + _SEARCH_SLACK
        moved = None  # side the last probe moved
        while hi - lo > 1:
            left -= 1
            (t_f, f), (t_t, g) = samples
            t = t_t + (t_f - t_t) * (g / (g - f)) if g != f else math.nan
            j = (lo + hi) // 2
            if t_t < t < t_f:
                lam = math.exp(t)
                j = bisect.bisect_left(range(n), True, lo=lo + 1, hi=hi,
                                       key=lambda k: key(k) * c < lam)
            room = 1 << left
            j = max(hi - room, lo + 1, min(j, lo + room, hi - 1))
            lam = key(j) * c
            e = probe(lam)
            side = bool(holds(e))
            if side == moved:  # the other end stays: shrink its excess
                prev = samples[side][1]
                w = 1.0 - e / prev if prev else 0.0
                t_kept, e_kept = samples[not side]
                samples[not side] = (t_kept, e_kept * (w if w > 0.0 else 0.5))
            samples[side] = (_log(lam), e)
            if side:
                hi = j
            else:
                lo = j
            moved = side
        return hi

    n_plus = n_minus = 0
    if c_hi > 0.0:
        top, bottom = key(0) * c_hi, key(n - 1) * c_hi
        e_top = probe(top)
        if e_top >= 0.0:
            e_bottom = probe(bottom)
            n_plus = n if e_bottom >= 0.0 else first_true(
                c_hi, lambda e: e < 0.0, 0, n - 1,
                (_log(top), e_top), (_log(bottom), e_bottom))
    if c_lo < math.inf and n_plus < n:
        top, bottom = key(0) * c_lo, key(n - 1) * c_lo
        e_bottom = probe(bottom)
        if e_bottom <= 0.0:
            n_minus = n - first_true(
                c_lo, lambda e: e <= 0.0, n_plus - 1, n - 1,
                (_log(top), probe(top)), (_log(bottom), e_bottom))
    return n_plus, n_minus, probes


def _budget_residual(achieved: float, target: float) -> float:
    residual = abs(achieved - target) / target
    if not residual <= 1e-8:  # NaN included
        raise SolverError(
            f"budget equation violated: achieved {achieved!r} vs target {target!r}")
    return residual


def _w_argument(lam: float, nu: np.ndarray, ranks) -> np.ndarray:
    """lam / (2 nu) on ``ranks``; SolverError at the first that overflows."""
    return _quotient(0.5 * lam, nu, "the log-squared W argument lam/(2 nu)", -math.inf,
                     "rank", ranks)


class _LogSquaredW:
    """W(lam / (2 nu_k)) = W(lam a_k / (2 b_k)) on rank ranges [i, j) of one
    log-squared solve, so that delta_k(lam) = exp(-W_k).

    Each pass keeps its W, indexed by rank. A later pass at t = log(lam)
    within 1 of the last one starts Halley on the ranks both cover from the
    cached W moved by dt * W / (1 + W) (dW/dt = W / (1 + W) in (0, 1), so
    the start is within |dt| <= 1 of the root), iterating in place in the
    cache; every other rank starts cold. One instance serves one solve,
    so a solve never depends on an earlier one. Calls lambert_w0 through
    the module so that wrappers of it see every pass.
    """

    def __init__(self, nu: np.ndarray):
        self.nu = nu  # in rank order
        self.w = np.empty_like(nu)
        self.i = self.j = 0  # ranks holding the last pass's W
        self.t = math.nan    # and its log(lam)

    def __call__(self, lam: float, i: int, j: int) -> np.ndarray:
        """W on ranks [i, j), a view into the cache valid until the next pass."""
        x = _w_argument(lam, self.nu[i:j], range(i, j))
        t = _log(lam)
        dt = t - self.t
        lo, hi = max(i, self.i), min(j, self.j)
        w = self.w[i:j]
        if abs(dt) <= 1.0 and lo < hi:
            warm = self.w[lo:hi]
            shift = warm + 1.0
            np.divide(warm, shift, out=shift)
            shift *= dt
            warm += shift
            del shift
            self.w[i:lo] = math.nan
            self.w[hi:j] = math.nan
        else:
            w.fill(math.nan)
        self.i, self.j, self.t = i, j, t
        return cost_models.lambert_w0(x, w)


def _transient(cm: CostModel, a: np.ndarray, b: np.ndarray, nu: np.ndarray, order):
    """``cost(lam, i, j, need)`` and ``solve(budget_T, i, j, lam_cap)`` of
    the transient ranks [i, j) under ``cm``, on rank-ordered a, b and
    nu = b / a; ``order`` holds each rank's input index.

    Transient rank k costs b_k h((h')^{-1}(-lam/nu_k)): (b_k a_k^r)^{1/(r+1)}
    (lam/r)^{r/(r+1)} for power, b_k log(lam) - b_k log(nu_k) for log (both
    O(1) from prefix sums) and b_k W(lam/(2 nu_k))^2 for log-squared, one
    ``_LogSquaredW`` pass. ``need`` is the budget left to the transient
    ranks. Only the side of ``need`` the cost falls on must be exact: where
    its block bounds settle that side, log-squared returns an estimate on it
    without the pass, and the closed forms ignore ``need``. ``solve``
    returns the values at transient budget ``budget_T`` and the multiplier
    lambda_star < 0: closed forms for power and log; log-squared takes
    Newton steps down from ``lam_cap``, an upper bound of the multiplier
    magnitude, one pass each.
    """
    if cm.kind == POWER:
        r = cm.r
        w = _power_weights(a, b, r, "the power weight (b*a^r)^(1/(r+1))", order)
        g = np.cumsum(w)

        def solve(budget_T, i, j, lam_cap):
            with np.errstate(divide="ignore", over="ignore"):  # all of w[i:j] may underflow
                per_weight = np.array([budget_T / np.sum(w[i:j])])
            ranks = (f"{i}..{j - 1}",)
            _in_doubles(per_weight, "the power weights (b*a^r)^(1/(r+1)) of the transient "
                        "ranks underflow: budget over their sum leaves", -math.inf,
                        "ranks", ranks)
            lam_hat = per_weight[0] ** (-1.0 / r)
            delta = lam_hat * nu[i:j] ** (1.0 / (r + 1.0))
            with np.errstate(over="ignore"):
                lam = np.array([-r * lam_hat ** (-(r + 1.0))])
            _in_doubles(lam, "the power multiplier -r*lam_hat^-(r+1) leaves", -_HUGE,
                        "ranks", ranks)
            return delta, lam[0]
        return (lambda lam, i, j, _need: (lam / r) ** (r / (r + 1.0)) * _span(g, i, j)), solve

    if cm.kind == LOGARITHMIC:
        # in the log domain: the raw product over nu_k^{-b_k} overflows
        log_nu = np.log(b) - np.log(a)
        g = np.cumsum(b * log_nu)
        sb = np.cumsum(b)

        def solve(budget_T, i, j, lam_cap):
            bT, log_nuT = b[i:j], log_nu[i:j]
            log_lam_hat = -(budget_T + np.sum(bT * log_nuT)) / np.sum(bT)
            return np.exp(log_lam_hat + log_nuT), -math.exp(-log_lam_hat)
        return (lambda lam, i, j, _need: math.log(lam) * _span(sb, i, j) - _span(g, i, j)), solve

    w_of = _LogSquaredW(nu)

    def cost(lam, i, j, need):
        if j <= i:
            return 0.0
        n = j - i
        if n >= _BOUND_MIN_RANKS:
            # W rises along the ranks (x_k = lam / (2 nu_k), computed as the
            # full pass computes it), so W at a block's first and last rank
            # bound every W_k in it, and with the block sums S of b,
            # lower = sum S W_first^2 <= sum b_k W_k^2 <= sum S W_last^2 = upper.
            # The full pass's computed sum C differs from the exact one by
            # rounding, which ``margin`` covers:
            # - lambert_w0 stops each W once |f| <= 4 eps w (1 + w) on
            #   f = w - x e^-w, whose slope is ~1 + W; with exp good to 4
            #   ulps, each W is within 8.5 eps of the root, relative, to first
            #   order; _W_REL = 16 eps leaves room for the second-order terms.
            #   W^2 of the full pass and of a block end then differ by a
            #   factor within 1 + 4 _W_REL;
            # - the squares, products and sums of positive terms in the full
            #   pass's sum of b W^2, the block sums and both bound sums each
            #   stay within a factor 1 + gamma_n of exact, whatever order
            #   ``_dot`` adds them in, gamma_n = n u / (1 - n u)
            #   (u = 2^-53); three such factors, the roundings of the tests
            #   below and every second-order term fit in 4 gamma_n, since
            #   n >= _BOUND_MIN_RANKS makes gamma_n >= 4096 u;
            # - a product that underflows errs by up to 2^-1075 absolute, not
            #   relative; ``tiny`` allows 8 n of them, more than both sums
            #   hold (W >= -log(M delta_ref) > 0 keeps the squares normal).
            # So C lies in [lower (1 - margin) - tiny, upper (1 + margin) +
            # tiny]; where that interval is clear of ``need``, the midpoint
            # of [lower, upper] lies on C's side of it and no pass is run.
            blocks = i + np.arange(_BOUND_BLOCKS) * n // _BOUND_BLOCKS
            ends = np.concatenate((blocks, np.append(blocks[1:], j) - 1))
            w = cost_models.lambert_w0(_w_argument(lam, nu[ends], ends))
            w *= w
            sums = np.add.reduceat(b[i:j], blocks - i)
            lower = _dot(sums, w[:_BOUND_BLOCKS])
            upper = _dot(sums, w[_BOUND_BLOCKS:])
            gamma = n * 2.0**-53 / (1.0 - n * 2.0**-53)
            margin, tiny = 4.0 * _W_REL + 4.0 * gamma, 4.0 * n * 2.0**-1074
            if upper * (1.0 + margin) + tiny < need or lower * (1.0 - margin) - tiny > need:
                return 0.5 * (lower + upper)
        w = w_of(lam, i, j)
        return _dot(b[i:j], w * w)

    def solve(budget_T, i, j, lam_cap):
        # with W_k = W(lam a_k / (2 b_k)), the transient cost R(t) = sum
        # b_k W_k^2 at t = log(lam) is increasing and convex (R' = sum
        # 2 b_k W_k^2 / (1 + W_k)), so Newton steps from an upper bound
        # descend monotonically onto the root. The mean cost H = budget_T /
        # sum b_k gives a bound too: some delta_k >= h^{-1}(H) = exp(-sqrt(H)),
        # so lam <= max nu_k * -h'(exp(-sqrt(H))) = max nu_k * 2 sqrt(H) exp(sqrt(H)).
        bT = b[i:j]
        root_h = math.sqrt(budget_T / float(np.sum(bT)))
        with np.errstate(over="ignore"):
            lam_cap = min(lam_cap, float(nu[i] * 2.0 * root_h * np.exp(root_h)))
        if not lam_cap < math.inf:
            raise SolverError("no finite bound on the log-squared multiplier")
        t = math.log(lam_cap)
        while True:
            w = w_of(math.exp(t), i, j)
            cost = w * w
            gap = _dot(bT, cost) - budget_T
            if gap <= 0.0:
                break
            cost /= w + 1.0
            step = gap / (2.0 * _dot(bT, cost))
            if step <= _NEWTON_STEP_TOL or t - step == t:
                break
            t -= step
        delta = np.negative(w)
        return np.exp(delta, out=delta), -math.exp(t)
    return cost, solve


def _water_fill(nu: np.ndarray, weight, transient, loose, tight, budget: float,
                limits, achieved) -> tuple[np.ndarray, KktCertificate]:
    """Values in input order and certificate of a water-filling along nu.

    Ranks sort nu in descending order. ``loose`` and ``tight`` are the
    (value, cost per unit weight, breakpoint scale c) of a pinned rank: rank
    j is loose for multipliers lam <= nu_j * c_loose and tight for
    lam >= nu_j * c_tight, a scale of 0 (inf) pinning no rank. ``weight``
    (input order) weighs the pinned costs, and
    ``transient(order, nu, weight)`` returns ``cost`` and ``solve`` of the
    transient ranks (see ``_transient``) on the rank-ordered data. Transient
    values outside ``limits`` fail the solve; inside, they are clipped to the
    box. The budget residual compares ``achieved(values)`` with ``budget``.
    """
    n = nu.size
    order = _descending_order(nu)
    nu = nu[order]
    (v_hi, h_hi, c_hi), (v_lo, h_lo, c_lo) = loose, tight
    weight = weight[order]
    span = partial(_span, np.cumsum(weight))
    total = lambda i, j: float(np.sum(weight[i:j]))
    cost, solve = transient(order, nu, weight)

    def excess(lam, i, j):
        # a float subtraction keeps the sign of the exact difference, so a
        # cost estimate on the full cost's side of need gives its sign
        need = budget - (h_hi * span(0, i) + (h_lo * span(j, n) if j < n else 0.0))
        return cost(lam, i, j, need) - need
    n_plus, n_minus, probes = _saturation_counts(n, nu.__getitem__, c_hi, c_lo, excess)
    i, j = n_plus, n - n_minus
    budget_T = budget - h_hi * total(0, i) - (h_lo * total(j, n) if n_minus else 0.0)
    del excess, cost, span, total, weight
    values = np.empty(n)
    values[order[:i]] = v_hi
    values[order[j:]] = v_lo
    lam = math.nan
    if i == j and abs(budget_T / budget) > 1e-10:
        raise SolverError("bound saturation exhausted all indices off-budget")
    if i < j:
        if budget_T <= 0.0:
            raise SolverError("non-positive residual budget on the transient set")
        # below the loose breakpoint of the last loose rank and the tight
        # breakpoint of the last transient rank
        lam_cap = min(nu[i - 1] * c_hi if i else math.inf, nu[j - 1] * c_lo)
        vals, lam = solve(budget_T, i, j, lam_cap)
        _in_doubles(vals, "the transient values leave", math.ulp(0.0), "rank", range(i, j))
        if vals.min() < limits[0] or vals.max() > limits[1]:
            raise SolverError("transient values leave the box: partition search failed")
        values[order[i:j]] = np.clip(vals, min(v_hi, v_lo), max(v_hi, v_lo))
        del vals
    residual = _budget_residual(achieved(values), budget)
    return values, KktCertificate(n_plus, n_minus, float(lam), residual, probes)


def solve_accuracy(p: ScheduleProblem) -> tuple[Schedule, KktCertificate]:
    """Water-filling solve of the accuracy-controlled problem: rank j is
    loose (M * delta_ref) for lam <= nu_j * -h'(hi) and tight (m * delta_ref)
    for lam >= nu_j * -h'(lo)."""
    cm = p.cost_model
    lo, hi = p.m * p.delta_ref, p.M * p.delta_ref
    # h blows up at 0 for every supported kind, so m = 0 forbids pinning
    # below; M = inf pins nothing above.
    loose = ((hi, h_eval(cm, hi), -float(_hprime_raw(cm, hi))) if math.isfinite(hi)
             else (hi, 0.0, 0.0))
    tight = ((lo, h_eval(cm, lo), -float(_hprime_raw(cm, lo))) if p.m > 0.0
             else (lo, math.inf, math.inf))
    values, cert = _water_fill(
        _quotient(p.b, p.a, "the accuracy key nu = b/a"), p.b,
        lambda order, nu, b: _transient(cm, p.a[order], b, nu, order),
        loose, tight, reference_budget(p),
        (lo * (1.0 - _REL_TOL), hi * (1.0 + _REL_TOL)),  # slack _REL_TOL * bound
        lambda values: _dot(p.b, h_eval(cm, values)))
    return Schedule(values, "accuracy"), cert


def solve_work(p: WorkProblem) -> tuple[Schedule, KktCertificate]:
    """Water-filling solve of the work-controlled problem.

    The driver of ``solve_accuracy`` after a change of variables: the
    interior split is omega_k = lam * w_k, w_k = (b_k a_k^r)^{1/(r+1)}, so
    rank j is loose (omega_M) for lam <= omega_M / w_j, tight (omega_m) for
    lam >= omega_m / w_j, and the transient ranks take lam * sum w_k.
    """
    name = "the work weight (b*a^r)^(1/(r+1))"
    w = _power_weights(p.a, p.b, p.r, name)

    def linear(order, nu, _):
        ws = w[order]
        g = np.cumsum(ws)

        def solve(budget_T, i, j, lam_cap):
            lam_hat = budget_T / float(np.sum(ws[i:j]))
            return ws[i:j] * lam_hat, lam_hat
        return lambda lam, i, j, _need: lam * _span(g, i, j), solve

    # a pinned rank's value, its cost per unit weight and its breakpoint
    # scale are all the bound; the box check's slack is _REL_TOL * omega_bar
    tol = _REL_TOL * p.omega_bar
    values, cert = _water_fill(
        _quotient(1.0, w, name), np.ones(p.size), linear, (p.omega_M,) * 3, (p.omega_m,) * 3,
        p.omega_bar, (p.omega_M - tol, p.omega_m + tol), lambda values: float(np.sum(values)))
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
