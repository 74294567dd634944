import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tunable_oracle.certificates import next_certificate
from tunable_oracle.fgm import (
    FgmError,
    IterationRecord,
    fgm_run,
    line_search_validate,
    project_simplex,
)


def quadratic_oracle(center, scale=1.0):
    """Exact oracle for F(x) = scale/2 * ||x - center||^2."""
    c = np.asarray(center, dtype=float)

    def oracle(x, delta):
        diff = x - c
        return SimpleNamespace(value=0.5 * scale * float(diff @ diff),
                               gradient=scale * diff,
                               delta=float(delta),
                               inner_work=1.0)
    return oracle


def recording_oracle(seen):
    """``quadratic_oracle`` at the origin that appends each request to ``seen``."""
    exact = quadratic_oracle([0.0, 0.0])

    def oracle(x, delta):
        seen.append(delta)
        return exact(x, delta)
    return oracle


def constant_schedule(delta):
    return lambda k, A_next: delta


def reference_project_simplex(v):
    """The sort-based projection as first written; the differential tests
    hold the optimised ``project_simplex`` to its exact bits."""
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise FgmError("cannot project a non-finite vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0.0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def reference_fgm_run(oracle, schedule, N, x0, L, mu, adaptive, r2_estimate):
    """``fgm_run``'s loop as first written, on the reference projection: it
    always adds mu * (z - y) and forms (1 - alpha) * x for y and x_new apart.
    Returns every accepted iterate and record."""
    x = np.asarray(x0, dtype=float).copy()
    z = x.copy()
    A = 0.0
    weighted_delta = 0.0
    iterates, records = [], []
    L_next = L
    for k in range(N):
        L_try = min(max(L_next / 1.5, mu, 1e-300), L) if adaptive else L
        omega_k = 0.0
        retries = 0
        while True:
            A_next = next_certificate(A, L_try, mu)
            alpha = (A_next - A) / A_next
            y = (1.0 - alpha) * x + alpha * z
            delta_k = float(schedule(k, A_next))
            reply_y = oracle(y, delta_k)
            omega_k += reply_y.inner_work
            coef = (A_next - A) / (1.0 + mu * A_next)
            z_new = reference_project_simplex(
                z - coef * (reply_y.gradient + mu * (z - y)))
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
            L_try = min(L_try * 2.0, L)
        x, z, A = x_new, z_new, A_next
        L_next = L_try
        weighted_delta += A_next * reply_y.delta
        records.append(IterationRecord(
            k=k, delta=delta_k, omega=omega_k, L=L_try, A=A,
            bound=(r2_estimate + 2.0 * weighted_delta) / A, retries=retries))
        iterates.append(x)
    return iterates, records


def noisy_quadratic_oracle(center, scale, seed):
    """F(x) = scale/2 * ||x - center||^2 with gradient noise of radius delta.

    The gradient is formed as -(scale * (center - x)), so an entry where x
    meets center reads -0.0: the zero whose sign a dropped +0 term would
    flip."""
    c = np.asarray(center, dtype=float)
    rng = np.random.default_rng(seed)

    def oracle(x, delta):
        grad = -(scale * (c - x))
        if delta > 0.0:
            u = rng.standard_normal(x.size)
            grad = grad + delta * u / np.linalg.norm(u)
        diff = x - c
        return SimpleNamespace(value=0.5 * scale * float(diff @ diff),
                               gradient=grad, delta=float(delta),
                               inner_work=1.0 + delta)
    return oracle


# mixed signs and magnitudes, with repeated values drawn from a short list
# so that ties in the sort are common
_PROJECTION_INPUTS = st.lists(
    st.one_of(st.floats(min_value=-1e3, max_value=1e3),
              st.sampled_from([-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0])),
    min_size=1, max_size=60)


class TestProjectSimplex:
    def test_uniform_shift(self):
        out = project_simplex(np.array([0.4, 0.2, 0.1]))
        np.testing.assert_allclose(out, [0.5, 0.3, 0.2])

    def test_dominant_coordinate_gives_vertex(self):
        out = project_simplex(np.array([10.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_feasible_point_unchanged(self):
        x = np.array([0.2, 0.5, 0.3])
        np.testing.assert_allclose(project_simplex(x), x, atol=1e-15)

    def test_rejects_nonfinite(self):
        with pytest.raises(FgmError):
            project_simplex(np.array([1.0, math.nan]))

    # the check looks at the two ends of the sorted copy only
    @pytest.mark.parametrize("position", [0, 2, 4], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_nonfinite_at_any_position(self, bad, position):
        v = np.array([0.3, -1.0, 0.5, 2.0, 0.1])
        v[position] = bad
        with pytest.raises(FgmError, match="cannot project a non-finite vector"):
            project_simplex(v)

    @pytest.mark.parametrize("values", [
        [math.nan, math.inf], [-math.inf, 0.5, math.nan],
        [math.inf, math.nan, -math.inf], [math.nan, math.nan]])
    def test_rejects_nan_mixed_with_inf(self, values):
        with pytest.raises(FgmError, match="cannot project a non-finite vector"):
            project_simplex(np.array(values))

    def test_rejects_empty(self):
        with pytest.raises(FgmError):
            project_simplex(np.array([]))

    @pytest.mark.parametrize("shape", [(), (2, 2), (1, 3), (3, 1)])
    def test_rejects_a_point_that_is_not_1d(self, shape):
        named = re.escape(f"1-D vector, got shape {shape}")
        with pytest.raises(FgmError, match=named):
            project_simplex(np.full(shape, 0.5))

    def test_entries_beyond_double_resolution_raise(self):
        # 1e17 - (1e17 - 1) rounds to 0, so no rank passes the threshold test
        with pytest.raises(FgmError, match="no rank qualifies"):
            project_simplex(np.array([1e17, 0.0]))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.parametrize("values", [[-1e308, -1e308], [-1.7e308, 1.0, -1.7e308]])
    def test_overflowing_sum_raises(self, values):
        # the cumulative sum reaches -inf, which would shift every entry to inf
        with pytest.raises(FgmError, match="too large in magnitude"):
            project_simplex(np.array(values))

    def test_input_not_modified(self):
        v = np.array([0.9, -0.3, 0.6])
        project_simplex(v)
        np.testing.assert_array_equal(v, [0.9, -0.3, 0.6])

    @settings(max_examples=300, deadline=None)
    @given(_PROJECTION_INPUTS)
    @example([5.0])
    @example([-2.0])
    @example([1.0, 1.0])
    @example([0.5, -0.0, 0.5, 0.0, 0.5])
    @example([-3.0, -3.0, 7.0])
    def test_bit_identical_to_reference(self, values):
        v = np.array(values)
        out = project_simplex(v)
        ref = reference_project_simplex(v)
        assert np.array_equal(out, ref)
        assert out.tobytes() == ref.tobytes()  # also tells -0.0 from 0.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(min_value=-50.0, max_value=50.0),
                    min_size=1, max_size=12))
    def test_output_feasible_and_optimal(self, values):
        v = np.array(values)
        out = project_simplex(v)
        assert abs(out.sum() - 1.0) <= 1e-9
        assert np.all(out >= 0.0)
        # projection is no farther than any other simplex point we can name
        for probe in (np.full(v.size, 1.0 / v.size), np.eye(v.size)[0]):
            assert np.sum((v - out) ** 2) <= np.sum((v - probe) ** 2) + 1e-9


class TestLineSearchValidate:
    def test_same_point_always_passes(self):
        y = np.array([0.5, 0.5])
        assert line_search_validate(3.0, np.array([1.0, -1.0]), 3.0, y, y,
                                    1e-6, 0.0)

    def test_exact_quadratic_at_true_curvature(self):
        L0 = 4.0
        y = np.zeros(2)
        x = np.array([0.3, -0.2])
        f = lambda p: 0.5 * L0 * float(p @ p)
        assert line_search_validate(f(y), L0 * y, f(x), x, y, L0, 0.0)

    def test_exact_quadratic_rejects_small_curvature(self):
        L0 = 4.0
        y = np.zeros(2)
        x = np.array([0.3, -0.2])
        f = lambda p: 0.5 * L0 * float(p @ p)
        assert not line_search_validate(f(y), L0 * y, f(x), x, y, L0 / 4.0, 0.0)

    def test_inexactness_slack_rescues(self):
        L0 = 4.0
        y = np.zeros(2)
        x = np.array([0.3, -0.2])
        f = lambda p: 0.5 * L0 * float(p @ p)
        slack = f(x)  # 2 * delta with delta = f(x) / 2 covers the whole gap
        assert line_search_validate(f(y), L0 * y, f(x), x, y, L0 / 4.0,
                                    slack / 2.0)


class TestFgmRun:
    def test_zero_iterations_returns_start(self):
        x0 = np.array([0.25, 0.75])
        x, traj = fgm_run(quadratic_oracle([0.0, 0.0]),
                          constant_schedule(0.0), 0, x0, 1.0)
        np.testing.assert_array_equal(x, x0)
        assert traj == []

    def test_rejects_infeasible_start(self):
        # a NaN sum passes a `> tolerance` test, so a non-finite start must be
        # rejected on its own, even at N = 0
        for x0 in ([0.7, 0.7], [math.nan, 1.0], [math.inf, 1.0]):
            for N in (0, 1):
                with pytest.raises(FgmError, match="unit simplex"):
                    fgm_run(quadratic_oracle([0.0, 0.0]), constant_schedule(0.0),
                            N, np.array(x0), 1.0)

    @pytest.mark.parametrize("x0", [[[0.5, 0.5]], [[1.0], [0.0]], 1.0])
    def test_rejects_a_start_that_is_not_1d(self, x0):
        x0 = np.array(x0)
        named = re.escape(f"1-D vector, got shape {x0.shape}")
        with pytest.raises(FgmError, match=named):
            fgm_run(quadratic_oracle([0.0, 0.0]), constant_schedule(0.0), 1,
                    x0, 1.0)

    def test_noise_free_worst_case_bound(self):
        # F(x) = ||x||^2 / 2 on the simplex: minimizer (1/2, 1/2), F* = 1/4
        oracle = quadratic_oracle([0.0, 0.0])
        x0 = np.array([1.0, 0.0])
        r2 = 0.5  # ||x0 - x*||^2
        for N in (1, 5, 20, 100):
            x, traj = fgm_run(oracle, constant_schedule(0.0), N, x0, 1.0,
                              r2_estimate=r2)
            gap = 0.5 * float(x @ x) - 0.25
            assert -1e-12 <= gap <= r2 / traj[-1].A + 1e-12
            assert traj[-1].bound == pytest.approx(r2 / traj[-1].A)

    def test_constant_delta_tracker_identity(self):
        delta = 1e-3
        _, traj = fgm_run(quadratic_oracle([0.2, 0.2], scale=2.0),
                          constant_schedule(delta), 30, np.array([0.5, 0.5]),
                          2.0, r2_estimate=1.0)
        A = np.array([rec.A for rec in traj])
        expected = (1.0 + 2.0 * delta * A.sum()) / A[-1]
        assert traj[-1].bound == pytest.approx(expected, rel=1e-12)

    def test_iterates_stay_on_simplex(self):
        seen = []
        x_end, traj = fgm_run(quadratic_oracle([2.0, -1.0, 0.0]),
                              constant_schedule(1e-4), 50, np.array([1.0, 0.0, 0.0]),
                              1.0, mu=0.5, observer=lambda rec, x: seen.append((rec, x.copy())))
        # the observer sees each accepted step's record, in order
        assert [rec for rec, _ in seen] == traj
        assert [rec.k for rec, _ in seen] == list(range(50))
        assert seen[-1][1].tobytes() == x_end.tobytes()
        for _, x in seen:
            assert abs(x.sum() - 1.0) <= 1e-12
            assert np.all(x >= -1e-12)

    def test_error_accumulation_constant_floor(self):
        # a constant request keeps the bound pinned at >= 2 * delta
        delta = 1e-2
        _, traj = fgm_run(quadratic_oracle([0.0, 0.0]),
                          constant_schedule(delta), 200, np.array([1.0, 0.0]),
                          1.0, r2_estimate=0.5)
        assert traj[-1].bound >= 2.0 * delta

    def test_error_accumulation_decaying_vanishes(self):
        schedule = lambda k, A_next: 1e-2 / (k + 1.0) ** 3
        _, traj = fgm_run(quadratic_oracle([0.0, 0.0]), schedule, 10_000,
                          np.array([1.0, 0.0]), 1.0, r2_estimate=0.5)
        assert traj[-1].bound <= 1e-4
        assert traj[-1].bound < traj[99].bound


class TestAdaptive:
    def test_settles_near_true_curvature(self):
        _, traj = fgm_run(quadratic_oracle([0.0, 0.0], scale=3.0),
                          constant_schedule(0.0), 40, np.array([1.0, 0.0]),
                          64.0, mu=0.0, adaptive=True)
        # shrink from 64 toward the true curvature 3, never far below it
        assert traj[-1].L <= 3.0 * 2.0
        assert all(rec.L >= 3.0 / 1.5 / 2.0 for rec in traj)

    def test_cap_terminates_search(self):
        # curvature 10 but ceiling L_init = 2: validation fails, the ceiling
        # must accept
        _, traj = fgm_run(quadratic_oracle([0.0, 0.0], scale=10.0),
                          constant_schedule(0.0), 10, np.array([1.0, 0.0]),
                          2.0, adaptive=True)
        assert all(rec.L == 2.0 for rec in traj)

    def test_adaptive_beats_pessimistic_fixed_step(self):
        oracle = quadratic_oracle([0.0, 0.0], scale=1.0)
        x0 = np.array([1.0, 0.0])
        _, traj_f = fgm_run(oracle, constant_schedule(0.0), 30, x0, 50.0)
        _, traj_a = fgm_run(oracle, constant_schedule(0.0), 30, x0, 50.0,
                            adaptive=True)
        assert traj_a[-1].A > 5.0 * traj_f[-1].A

    def test_charges_both_oracle_calls(self):
        _, traj = fgm_run(quadratic_oracle([0.0, 0.0]), constant_schedule(0.0),
                          5, np.array([0.5, 0.5]), 1.0, adaptive=True)
        for rec in traj:
            assert rec.omega == pytest.approx(2.0 * (1 + rec.retries))

    def test_config_validation(self):
        run = lambda L, mu=0.0: fgm_run(
            quadratic_oracle([0.0, 0.0]), constant_schedule(0.0), 1,
            np.array([1.0, 0.0]), L, mu=mu, adaptive=True)
        for L in (0.0, math.inf, math.nan):
            with pytest.raises(FgmError, match="finite L"):
                run(L)
        with pytest.raises(FgmError, match="mu >= 0"):
            run(1.0, mu=-0.1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_rejects_non_finite_mu(self, mu):
        with pytest.raises(FgmError, match="need a finite mu >= 0"):
            fgm_run(quadratic_oracle([0.0, 0.0]), constant_schedule(0.0), 1,
                    np.array([1.0, 0.0]), 1.0, mu=mu)

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("bad", [math.nan, -1.0])
    def test_rejects_nan_or_negative_request(self, bad, adaptive):
        # the oracle checks nothing: the request must stop in fgm_run
        seen = []
        with pytest.raises(FgmError, match=rf"delta = {bad!r} at iteration 2"):
            fgm_run(recording_oracle(seen), lambda k, A_next: bad if k == 2 else 1e-3,
                    3, np.array([1.0, 0.0]), 1.0, adaptive=adaptive)
        assert seen and all(delta == 1e-3 for delta in seen)

    def test_passes_an_infinite_request_on(self):
        seen = []
        _, traj = fgm_run(recording_oracle(seen), constant_schedule(math.inf), 2,
                          np.array([1.0, 0.0]), 1.0)
        assert seen == [math.inf, math.inf]
        assert traj[-1].bound == math.inf

    def test_estimate_never_drops_below_mu(self):
        # once the iterates settle every validation passes; an estimate
        # divided by 1.5 per step without a floor overflowed A_k at step 53
        mu = 1.0
        _, traj = fgm_run(quadratic_oracle([0.0, 0.0]), constant_schedule(0.0),
                          100, np.array([0.3, 0.7]), 1.0, mu=mu, adaptive=True)
        assert len(traj) == 100
        assert all(rec.L >= mu for rec in traj)

    @pytest.mark.parametrize("adaptive", [False, True])
    def test_certificate_overflow_names_the_iteration(self, adaptive):
        # at L = mu = 1 the certificates grow ~2.6-fold per step and overflow
        # at k = 369 (the adaptive search never tries an L below mu = 1);
        # without the check it surfaced as a non-finite projection
        with pytest.raises(FgmError, match=r"certificate overflow at iteration \d+"):
            fgm_run(quadratic_oracle([0.0, 0.0]), constant_schedule(0.0), 3000,
                    np.array([1.0, 0.0]), 1.0, mu=1.0, adaptive=adaptive)


class TestAgainstTheFirstLoop:
    """``fgm_run`` skips mu * (z - y) at mu = 0 and forms (1 - alpha) * x once
    per try; every iterate and record must keep the bits of the loop as
    first written."""

    SCHEDULES = {
        "exact": lambda k, A_next: 0.0,
        "decaying": lambda k, A_next: 1e-2 / (k + 1.0) ** 2,
        "zeros_between": lambda k, A_next: 0.0 if k % 3 else 1e-3 * A_next ** -0.5,
    }

    @pytest.mark.parametrize("schedule", sorted(SCHEDULES))
    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("mu", [0.0, 0.5])
    @pytest.mark.parametrize("x0", [
        [1.0, 0.0, 0.0, 0.0, 0.0],          # a vertex: zero entries from the start
        [0.1, 0.2, 0.3, 0.15, 0.25],
        [0.5, -0.0, 0.5, 0.0, 0.0],          # a start with a negative zero
    ])
    def test_bit_identical(self, schedule, adaptive, mu, x0):
        # the minimizer sits on a face, so iterates and center share zeros
        center, scale, L, N = [0.6, 0.4, 0.0, 0.0, -0.3], 3.0, 8.0, 60
        x0 = np.array(x0)
        seen = []
        x_end, records = fgm_run(
            noisy_quadratic_oracle(center, scale, seed=7),
            self.SCHEDULES[schedule], N, x0, L, mu=mu, adaptive=adaptive,
            r2_estimate=1.0, observer=lambda rec, x: seen.append(x.copy()))
        ref_iterates, ref_records = reference_fgm_run(
            noisy_quadratic_oracle(center, scale, seed=7),
            self.SCHEDULES[schedule], N, x0, L, mu, adaptive, 1.0)
        assert [x.tobytes() for x in seen] == [x.tobytes() for x in ref_iterates]
        assert x_end.tobytes() == ref_iterates[-1].tobytes()
        assert [repr(rec) for rec in records] == [repr(rec) for rec in ref_records]
        if adaptive:  # the line search ran, and sometimes retried
            assert sum(rec.retries for rec in records) > 0
