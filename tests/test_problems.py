import math

import numpy as np
import pytest

from test_fgm import reference_project_simplex
from tunable_oracle import problems
from tunable_oracle.cost_models import CostModel
from tunable_oracle.harness import FSTAR_PRECISION, estimate_fstar
from tunable_oracle.problems import (
    InnerResult,
    InnerSolverExhausted,
    InnerState,
    OracleError,
    OracleReply,
    ScenarioData,
    fista_inner,
    generate_scenarios,
    hull_oracle,
    hull_value,
    inner_q_value_grad,
    kappa_hat,
    noisy_oracle,
    softmax_value_grad,
)


LOG = CostModel("logarithmic")
POWER_1 = CostModel("power", 1.0)


def make_data(O, sigma=0.1, mu=0.0):
    O = np.asarray(O, dtype=float)
    return ScenarioData(O=O, sigma=sigma, mu=mu)


class TestGeneration:
    def test_deterministic(self):
        a = generate_scenarios(5, 7, 2.0, seed=42)
        b = generate_scenarios(5, 7, 2.0, seed=42)
        np.testing.assert_array_equal(a.O, b.O)
        assert generate_scenarios(5, 7, 2.0, seed=43).O[0, 0] != a.O[0, 0]

    def test_row_norms_match_variance(self):
        data = generate_scenarios(200, 400, 4.0, seed=0)
        mean_sq = float(np.mean(np.sum(data.O ** 2, axis=1)))
        assert mean_sq == pytest.approx(400 / 4.0, rel=0.2)

    def test_single_scenario_anchor(self):
        data = generate_scenarios(1, 4, 1.0, seed=3)
        np.testing.assert_array_equal(data.theta_bar, data.O[0])

    def test_rejects_bad_sizes(self):
        with pytest.raises(OracleError):
            generate_scenarios(0, 4, 1.0, seed=0)
        with pytest.raises(OracleError):
            generate_scenarios(4, 4, 0.0, seed=0)

    @pytest.mark.parametrize("sigma, mu", [(0.0, 0.0), (0.1, -1.0)])
    def test_rejects_bad_constants(self, sigma, mu):
        with pytest.raises(OracleError, match="need sigma > 0 and mu >= 0"):
            ScenarioData(np.eye(2), sigma=sigma, mu=mu)


class TestSpectral:
    def test_kappa_orthogonal_rows(self):
        data = make_data(3.0 * np.eye(4))
        assert kappa_hat(data) == pytest.approx(1.0)
        assert data.lam_max == pytest.approx(9.0)

    def test_kappa_zero_when_overcomplete(self):
        data = generate_scenarios(30, 10, 1.0, seed=0)  # n > d: rank deficient
        assert kappa_hat(data) == 0.0

    def test_kappa_positive_when_undercomplete(self):
        data = generate_scenarios(100, 200, 1.0, seed=0)
        assert 0.0 < kappa_hat(data) < 1.0

    def test_spectral_norm_matches_numpy(self):
        data = generate_scenarios(6, 9, 1.0, seed=5)
        assert data.lam_max == pytest.approx(
            np.linalg.norm(data.O, 2) ** 2)

    def test_all_zero_scenarios_have_no_inner_step(self):
        # lam_max = 0 leaves the inner solver without a step size
        with pytest.raises(OracleError, match="degenerate inner problem"):
            make_data(np.zeros((3, 2))).fista_constants


class TestSoftmax:
    def test_single_scenario_is_linear(self):
        data = make_data([[1.0, -2.0, 0.5]], mu=0.3)
        x = np.array([0.2, 0.3, 0.5])
        value, grad = softmax_value_grad(data, x)
        assert value == pytest.approx(data.O[0] @ x + 0.15 * (x @ x))
        np.testing.assert_allclose(grad, data.O[0] + 0.3 * x)

    def test_symmetric_cancellation(self):
        data = make_data([[1.0, -1.0], [-1.0, 1.0]])
        x = np.array([0.5, 0.5])
        value, grad = softmax_value_grad(data, x)
        assert value == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(grad, 0.0, atol=1e-14)

    def test_overflow_safe(self):
        data = make_data([[1e4, 0.0], [0.0, -1e4]])
        value, grad = softmax_value_grad(data, np.array([1.0, 0.0]))
        assert math.isfinite(value) and np.all(np.isfinite(grad))

    def test_finite_differences(self):
        data = generate_scenarios(8, 5, 1.0, seed=1, mu=0.4)
        rng = np.random.default_rng(2)
        eps = 1e-6
        for _ in range(10):
            x = rng.dirichlet(np.ones(5))
            _, grad = softmax_value_grad(data, x)
            for j in range(5):
                e = np.zeros(5)
                e[j] = eps
                fd = (softmax_value_grad(data, x + e)[0]
                      - softmax_value_grad(data, x - e)[0]) / (2 * eps)
                assert grad[j] == pytest.approx(fd, abs=1e-6)


class TestNoisyOracle:
    def test_exact_request(self):
        data = generate_scenarios(4, 3, 1.0, seed=0)
        x = np.full(3, 1.0 / 3.0)
        reply = noisy_oracle(data, x, 0.0, rng=np.random.default_rng(0),
                             cost=POWER_1)
        value, grad = softmax_value_grad(data, x)
        assert reply.value == value and reply.delta == 0.0
        assert reply.inner_work == 0.0
        np.testing.assert_array_equal(reply.gradient, grad)

    def test_noise_radius_and_certificate(self):
        data = generate_scenarios(4, 6, 1.0, seed=0)
        x = np.full(6, 1.0 / 6.0)
        _, grad = softmax_value_grad(data, x)
        reply = noisy_oracle(data, x, 1e-3, rng=np.random.default_rng(1),
                             cost=POWER_1)
        assert np.linalg.norm(reply.gradient - grad) == pytest.approx(0.1, rel=1e-12)
        assert reply.delta == pytest.approx(0.4)

    def test_work_models(self):
        data = generate_scenarios(2, 2, 1.0, seed=0)
        x = np.array([0.5, 0.5])
        rng = np.random.default_rng(0)
        assert noisy_oracle(data, x, 1e-2, rng, cost=POWER_1).inner_work \
            == pytest.approx(100.0)
        assert noisy_oracle(data, x, 1e-2, rng, cost=CostModel("power", 0.5)).inner_work \
            == pytest.approx(10.0)
        assert noisy_oracle(data, x, 1e-2, rng, cost=LOG).inner_work \
            == pytest.approx(math.log(100.0))
        # the log cost is 0 at delta = 1, the top of its domain
        assert noisy_oracle(data, x, 1.0, rng, cost=LOG).inner_work == 0.0

    def test_noise_mean_vanishes(self):
        data = generate_scenarios(3, 4, 1.0, seed=0)
        x = np.full(4, 0.25)
        _, grad = softmax_value_grad(data, x)
        rng = np.random.default_rng(7)
        # delta = 0.01: noise of unit radius
        noise = np.mean([noisy_oracle(data, x, 0.01, rng, POWER_1).gradient - grad
                         for _ in range(4000)], axis=0)
        assert np.linalg.norm(noise) < 0.05

    def test_deterministic_stream(self):
        data = generate_scenarios(3, 4, 1.0, seed=0)
        x = np.full(4, 0.25)
        g1 = [noisy_oracle(data, x, 0.1,
                           np.random.default_rng(9), POWER_1).gradient for _ in range(1)]
        g2 = [noisy_oracle(data, x, 0.1,
                           np.random.default_rng(9), POWER_1).gradient for _ in range(1)]
        np.testing.assert_array_equal(g1[0], g2[0])

    def test_validation(self):
        data = generate_scenarios(2, 2, 1.0, seed=0)
        with pytest.raises(OracleError):
            noisy_oracle(data, np.array([0.5, 0.5]), -1.0,
                         np.random.default_rng(0), POWER_1)
        # NaN fails every comparison; it must not pass as an exact request
        with pytest.raises(OracleError):
            noisy_oracle(data, np.array([0.5, 0.5]), math.nan,
                         np.random.default_rng(0), POWER_1)
        with pytest.raises(OracleError, match=r"logarithmic cost.*delta = 1\.5"):
            noisy_oracle(data, np.array([0.5, 0.5]), 1.5,
                         np.random.default_rng(0), cost=LOG)
        with pytest.raises(OracleError):
            OracleReply(value=0.0, gradient=np.zeros(2), delta=-0.1,
                        inner_work=0.0)


def reference_softmax_value_grad(data, x):
    """``softmax_value_grad`` with the plain reductions; the differential
    test holds the optimised one to its exact bits."""
    s = data.O @ x
    mx = float(s.max())
    e = np.exp(s - mx)
    denom = float(e.sum())
    value = mx + math.log(denom / data.n) + 0.5 * data.mu * float(x @ x)
    return value, data.O.T @ (e / denom) + data.mu * x


def reference_noise(rng, size):
    """The noise direction of ``noisy_oracle``, normalised by ``np.linalg.norm``."""
    u = rng.standard_normal(size)
    return u / np.linalg.norm(u)


class TestSoftmaxBitIdentity:
    # the experiment-1 sizes and two small ones, simplex and spread points; at
    # mu = 0 the plain version adds its strong-convexity terms as zeros
    @pytest.mark.parametrize("mu", [0.0, 0.1])
    @pytest.mark.parametrize("n, d, seed", [(100, 30, 1234), (6, 5, 1), (40, 200, 3)])
    def test_against_the_plain_reductions(self, n, d, seed, mu):
        data = generate_scenarios(n, d, 0.5, seed=seed, mu=mu)
        rng = np.random.default_rng(seed)
        points = list(rng.dirichlet(np.ones(d), size=200))
        points += [50.0 * rng.standard_normal(d) for _ in range(50)]
        for x in points:
            value, grad = softmax_value_grad(data, x)
            ref_value, ref_grad = reference_softmax_value_grad(data, x)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()

    @pytest.mark.parametrize("mu", [0.0, 0.1])
    @pytest.mark.parametrize("d", [2, 30, 200])
    def test_noise_direction(self, d, mu):
        data = generate_scenarios(4, d, 1.0, seed=0, mu=mu)
        x = np.full(d, 1.0 / d)
        _, grad = softmax_value_grad(data, x)
        rng, ref_rng = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(200):
            reply = noisy_oracle(data, x, 1e-3, rng, POWER_1)
            expected = grad + 100.0 * 1e-3 * reference_noise(ref_rng, d)
            assert reply.gradient.tobytes() == expected.tobytes()


def analytic_two_scenario_opt(data, x):
    """Closed-form inner maximizer for n == 2 on the segment w = (t, 1-t)."""
    u = data.O[0] - data.O[1]
    s = float(u @ x) / (data.sigma * float(u @ u))
    s = min(max(s, -0.5), 0.5)
    w = np.array([0.5 + s, 0.5 - s])
    return w, inner_q_value_grad(data, w, x)[0]


class TestInnerProblem:
    def test_value_at_anchor_pullback(self):
        # uniform weights reproduce the anchor, so the penalty vanishes
        data = generate_scenarios(5, 3, 1.0, seed=4)
        x = np.array([0.2, 0.3, 0.5])
        w = np.full(5, 0.2)
        value, _, _ = inner_q_value_grad(data, w, x)
        assert value == pytest.approx(float(data.theta_bar @ x))

    def test_finite_differences(self):
        data = generate_scenarios(6, 4, 1.0, seed=4, sigma=0.3)
        x = np.full(4, 0.25)
        rng = np.random.default_rng(0)
        w = rng.dirichlet(np.ones(6))
        _, grad, _ = inner_q_value_grad(data, w, x)
        eps = 1e-6
        for j in range(6):
            e = np.zeros(6)
            e[j] = eps
            fd = (inner_q_value_grad(data, w + e, x)[0]
                  - inner_q_value_grad(data, w - e, x)[0]) / (2 * eps)
            assert grad[j] == pytest.approx(fd, abs=1e-6)


class TestFistaInner:
    def test_reaches_target(self):
        data = generate_scenarios(20, 40, 0.5, seed=2, sigma=1e-2)
        x = np.full(40, 1.0 / 40.0)
        for target in (1e-2, 1e-6, 1e-10):
            result = fista_inner(data, x, target)
            assert result.converged and result.gap <= target

    def test_matches_two_scenario_closed_form(self):
        data = make_data([[1.0, 0.0, 2.0], [-1.0, 1.0, 0.0]], sigma=0.5)
        x = np.array([0.5, 0.25, 0.25])
        _, q_opt = analytic_two_scenario_opt(data, x)
        result = fista_inner(data, x, 1e-10)
        q_res, _, _ = inner_q_value_grad(data, result.w, x)
        assert q_opt - q_res == pytest.approx(0.0, abs=1e-8)
        assert q_opt - q_res <= result.gap + 1e-15

    def test_warm_start_at_optimum_is_free(self):
        data = generate_scenarios(10, 20, 1.0, seed=3, sigma=1e-2)
        x = np.full(20, 0.05)
        tight = fista_inner(data, x, 1e-12)
        warm = fista_inner(data, x, 1e-6, warm_start=InnerState(w=tight.w))
        assert warm.work == 0 and warm.converged

    def test_gap_certifies_every_step(self, monkeypatch):
        # stopped after any number of steps, the returned gap bounds the
        # distance of the returned value to the optimum
        data = generate_scenarios(8, 16, 1.0, seed=6, sigma=1e-2)
        x = np.full(16, 1.0 / 16.0)
        q_star = fista_inner(data, x, 1e-12).value
        steps = fista_inner(data, x, 1e-10).work
        assert steps >= 10
        for max_inner in range(1, steps + 1):
            monkeypatch.setattr(problems, "_MAX_INNER", max_inner)
            result = fista_inner(data, x, 1e-10)
            assert result.gap >= q_star - result.value - 1e-12
        assert result.converged and result.gap <= 1e-10

    def test_each_point_evaluated_once(self, monkeypatch):
        # w_0..w_W and the extrapolations v_1..v_{W-1}: the first step
        # reuses the evaluation of its start point
        calls = []
        original = problems.inner_q_value_grad

        def counted(data, w, x):
            calls.append(w)
            return original(data, w, x)
        monkeypatch.setattr(problems, "inner_q_value_grad", counted)
        data = generate_scenarios(20, 40, 0.5, seed=2, sigma=1e-2)
        x = np.full(40, 1.0 / 40.0)
        results = {}
        for target, max_inner in ((1e-12, 3), (1e-2, 10**6), (1e-10, 10**6)):
            monkeypatch.setattr(problems, "_MAX_INNER", max_inner)
            calls.clear()
            results[target] = fista_inner(data, x, target)
            assert results[target].work >= 1
            assert len(calls) == 2 * results[target].work
        calls.clear()
        warm = InnerState(w=results[1e-10].w)
        assert fista_inner(data, x, 1e-6, warm_start=warm).work == 0
        assert len(calls) == 1
        # a warm start that carries O^T w evaluates its start point without
        # the seam's product
        calls.clear()
        warm = InnerState(w=results[1e-10].w, Otw=results[1e-10].Otw)
        assert fista_inner(data, x, 1e-6, warm_start=warm).work == 0
        assert calls == []

    def test_one_projection_per_iteration(self, monkeypatch):
        calls = []
        original = problems.project_simplex

        def counted(v):
            calls.append(v)
            return original(v)
        monkeypatch.setattr(problems, "project_simplex", counted)
        data = generate_scenarios(20, 40, 0.5, seed=2, sigma=1e-2)
        x = np.full(40, 1.0 / 40.0)
        for target, max_inner in ((1e-12, 3), (1e-2, 10**6), (1e-10, 10**6)):
            monkeypatch.setattr(problems, "_MAX_INNER", max_inner)
            calls.clear()
            result = fista_inner(data, x, target)
            assert result.work >= 1
            assert len(calls) == result.work
        calls.clear()
        assert fista_inner(data, x, 1e-6, warm_start=InnerState(w=result.w)).work == 0
        assert calls == []

    def test_rejects_nonpositive_target(self, monkeypatch):
        data = generate_scenarios(2, 2, 1.0, seed=0)
        with pytest.raises(OracleError):
            fista_inner(data, np.array([0.5, 0.5]), 0.0)
        monkeypatch.setattr(problems, "_MAX_INNER", 50)
        with pytest.raises(OracleError):
            fista_inner(data, np.array([0.5, 0.5]), math.nan)

    def test_value_is_q_at_w_on_every_exit(self, monkeypatch):
        data = generate_scenarios(10, 20, 1.0, seed=3, sigma=1e-2)
        x = np.full(20, 0.05)
        tight = fista_inner(data, x, 1e-12)
        exits = {
            "start": fista_inner(data, x, 1e-6, warm_start=InnerState(w=tight.w)),
            "loop": tight,
        }
        monkeypatch.setattr(problems, "_MAX_INNER", 2)
        exits["exhausted"] = fista_inner(data, x, 1e-12)
        assert exits["start"].work == 0 and exits["start"].converged
        assert exits["loop"].work > 0 and exits["loop"].converged
        assert not exits["exhausted"].converged
        for result in exits.values():
            assert result.value == inner_q_value_grad(data, result.w, x)[0]


def reference_inner_q_value_grad(data, w, x):
    """``inner_q_value_grad`` as first written; the differential tests hold
    the optimised evaluation to its exact bits."""
    Otw = data.O.T @ w
    resid = Otw - data.theta_bar
    value = float(Otw @ x) - 0.5 * data.sigma * float(resid @ resid)
    grad = data.O @ (x - data.sigma * resid)
    return value, grad


def reference_fista_inner(data, x, delta_target, warm_start=None,
                          max_inner=10**6):
    """The FISTA loop as first written, over the reference evaluation and
    projection; the differential test holds ``fista_inner`` to its exact
    bits."""
    if delta_target <= 0.0:
        raise OracleError("delta_target must be > 0")
    n = data.n
    w = warm_start.w.copy() if warm_start is not None and warm_start.w is not None \
        else np.full(n, 1.0 / n)
    L_w = data.sigma * data.lam_max
    if L_w <= 0.0:
        raise OracleError("degenerate inner problem: sigma * lam_max == 0")
    step = 1.0 / L_w
    kap = kappa_hat(data)
    beta_const = (1.0 - math.sqrt(kap)) / (1.0 + math.sqrt(kap)) if kap > 0.0 else None

    q_w, grad_w = reference_inner_q_value_grad(data, w, x)
    upper = q_w + float(np.max(grad_w)) - float(grad_w @ w)
    gap = upper - q_w
    if gap <= delta_target:
        return InnerResult(w=w, Otw=data.O.T @ w, value=q_w, gap=gap, work=0,
                           converged=True)

    v = w.copy()
    w_prev = w.copy()
    t = 1.0
    for it in range(1, max_inner + 1):
        q_v, grad_v = reference_inner_q_value_grad(data, v, x)
        # linearizations are global upper bounds by concavity, even off-simplex
        upper = min(upper, q_v + float(np.max(grad_v)) - float(grad_v @ v))
        w = reference_project_simplex(v + step * grad_v)
        if beta_const is not None:
            beta = beta_const
        else:
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_new
            t = t_new
        v = w + beta * (w - w_prev)
        w_prev = w
        q_w, grad_w = reference_inner_q_value_grad(data, w, x)
        upper = min(upper, q_w + float(np.max(grad_w)) - float(grad_w @ w))
        gap = upper - q_w
        if gap <= delta_target:
            return InnerResult(w=w, Otw=data.O.T @ w, value=q_w, gap=gap,
                               work=it, converged=True)
    return InnerResult(w=w, Otw=data.O.T @ w, value=q_w, gap=gap, work=max_inner,
                       converged=False)


# (n, d): n <= d gives kappa_hat > 0 and the constant momentum, n > d a
# rank-deficient Gram matrix and the accelerating sequence; every case takes
# from a few to a few hundred iterations over the three targets
_BIT_IDENTITY_CASES = [(10, 20, 3e-3, 5), (50, 100, 3e-3, 1234),
                       (30, 10, 1.0, 6), (40, 25, 1e-2, 6)]


class TestFistaInnerBitIdentity:
    """``fista_inner`` against the reference loop: same iterates, same bits."""

    @staticmethod
    def assert_identical(result, ref):
        assert result.work == ref.work
        assert result.converged == ref.converged
        assert result.gap == ref.gap
        assert result.value == ref.value
        assert result.w.tobytes() == ref.w.tobytes()
        assert result.Otw.tobytes() == ref.Otw.tobytes()

    @pytest.mark.parametrize("n, d, sigma, seed", _BIT_IDENTITY_CASES)
    def test_evaluation(self, n, d, sigma, seed):
        # simplex points and the off-simplex extrapolations the loop makes
        data = generate_scenarios(n, d, 0.2, seed=seed, sigma=sigma)
        rng = np.random.default_rng(seed)
        x = rng.dirichlet(np.ones(d))
        points = list(rng.dirichlet(np.ones(n), size=3))
        points += [w + 0.1 * rng.standard_normal(n) for w in points]
        for w in points:
            w_before, x_before = w.tobytes(), x.tobytes()
            value, grad, Otw = inner_q_value_grad(data, w, x)
            ref_value, ref_grad = reference_inner_q_value_grad(data, w, x)
            assert value == ref_value
            assert grad.tobytes() == ref_grad.tobytes()
            assert Otw.tobytes() == (data.O.T @ w).tobytes()
            assert w.tobytes() == w_before and x.tobytes() == x_before

    @pytest.mark.parametrize("n, d, sigma, seed", _BIT_IDENTITY_CASES)
    def test_cold_and_warm_starts(self, n, d, sigma, seed):
        data = generate_scenarios(n, d, 0.2, seed=seed, sigma=sigma)
        assert (kappa_hat(data) > 0.0) == (n <= d)
        rng = np.random.default_rng(seed)
        x_prev, x = rng.dirichlet(np.ones(d), size=2)
        prev = reference_fista_inner(data, x_prev, 1e-4)
        inputs = x.tobytes(), prev.w.tobytes()
        works = []
        for target in (1e-2, 1e-5, 1e-9):
            # a warm start that carries O^T w (the reference's cold product)
            # gives the bits of the one that does not
            for start in (None, InnerState(w=prev.w), InnerState(w=prev.w, Otw=prev.Otw)):
                result = fista_inner(data, x, target, warm_start=start)
                self.assert_identical(
                    result,
                    reference_fista_inner(data, x, target, warm_start=start))
                works.append(result.work)
        assert (x.tobytes(), prev.w.tobytes()) == inputs
        assert min(works) >= 1 and max(works) >= 30

    @pytest.mark.parametrize("n, d, sigma, seed", _BIT_IDENTITY_CASES)
    def test_oracle_gradient_over_a_warm_chain(self, n, d, sigma, seed):
        # the oracle's gradient is mu x + O^T w with the product carried out
        # of the inner solver; it must keep the bits of the product formed
        # afresh at the returned w, along a chain of warm-started calls
        data = generate_scenarios(n, d, 0.2, seed=seed, sigma=sigma, mu=0.1)
        rng = np.random.default_rng(seed)
        state, ref_w = InnerState(), None
        for x in rng.dirichlet(np.ones(d), size=6):
            reply = hull_oracle(data, x, 1e-6, state)
            ref = reference_fista_inner(data, x, 1e-6, warm_start=InnerState(w=ref_w))
            ref_w = ref.w
            assert reply.inner_work == ref.work
            assert reply.value == 0.5 * data.mu * float(x @ x) + ref.value
            assert reply.gradient.tobytes() == (data.mu * x + data.O.T @ ref.w).tobytes()

    def test_exhausted_exit(self, monkeypatch):
        data = generate_scenarios(30, 10, 0.2, seed=6, sigma=1.0)
        x = np.full(10, 0.1)
        monkeypatch.setattr(problems, "_MAX_INNER", 7)
        self.assert_identical(fista_inner(data, x, 1e-12),
                              reference_fista_inner(data, x, 1e-12, max_inner=7))


class TestHullOracle:
    def test_value_brackets_exact(self):
        data = generate_scenarios(12, 24, 0.5, seed=11, sigma=1e-2, mu=0.2)
        x = np.full(24, 1.0 / 24.0)
        exact = hull_value(data, x, precision=1e-12)
        for delta in (1e-2, 1e-4, 1e-7):
            reply = hull_oracle(data, x, delta, InnerState())
            assert reply.value <= exact + 1e-12
            assert exact - reply.value <= delta

    def test_work_grows_as_delta_shrinks(self):
        data = generate_scenarios(12, 24, 0.5, seed=11, sigma=1e-2)
        x = np.full(24, 1.0 / 24.0)
        works = [hull_oracle(data, x, d, InnerState()).inner_work
                 for d in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(w2 >= w1 for w1, w2 in zip(works, works[1:]))
        # linear convergence: cost per decade of accuracy stays bounded
        assert works[-1] <= works[1] + 4.0 * (works[1] - works[0]) + 50

    def test_warm_start_saves_work(self):
        data = generate_scenarios(15, 30, 0.5, seed=12, sigma=1e-2)
        rng = np.random.default_rng(3)
        xs = [rng.dirichlet(np.ones(30)) for _ in range(6)]
        xs = [xs[0] + 0.01 * (x - xs[0]) for x in xs]  # slowly moving queries
        state = InnerState()
        warm = sum(hull_oracle(data, x, 1e-8, state).inner_work for x in xs)
        cold = sum(hull_oracle(data, x, 1e-8, InnerState()).inner_work
                   for x in xs)
        assert warm < cold

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(problems, "_MAX_INNER", 2)
        data = generate_scenarios(12, 24, 0.5, seed=11, sigma=1e-2)
        x = np.full(24, 1.0 / 24.0)
        with pytest.raises(InnerSolverExhausted):
            hull_oracle(data, x, 1e-10, InnerState())

    def test_rejects_nonpositive_delta(self):
        data = generate_scenarios(2, 2, 1.0, seed=0)
        with pytest.raises(OracleError):
            hull_oracle(data, np.array([0.5, 0.5]), 0.0, InnerState())
        with pytest.raises(OracleError):
            hull_oracle(data, np.array([0.5, 0.5]), math.nan, InnerState())


class TestHullValue:
    def test_leaves_warm_start_untouched(self):
        data = generate_scenarios(12, 24, 0.5, seed=11, sigma=1e-2)
        x = np.full(24, 1.0 / 24.0)
        state = InnerState()
        hull_oracle(data, x, 1e-2, state)
        w_before = state.w.copy()
        hull_value(data, x, precision=1e-12, state=state)
        np.testing.assert_array_equal(state.w, w_before)

    def test_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(problems, "_MAX_INNER", 1)
        data = generate_scenarios(12, 24, 0.5, seed=11, sigma=1e-2)
        x = np.full(24, 1.0 / 24.0)
        with pytest.raises(InnerSolverExhausted,
                           match=r"vs target 1\.000e-12 after 1 steps"):
            hull_value(data, x, precision=1e-12)


def hull_fstar(data, x_hat):
    """The lower model of the hull objective at x_hat, from a cold solve."""
    reply = hull_oracle(data, x_hat, FSTAR_PRECISION, InnerState())
    return estimate_fstar(reply.value, reply.gradient, x_hat, data.mu)


class TestEstimateFstar:
    def test_lower_bounds_value_everywhere(self):
        data = generate_scenarios(10, 20, 0.5, seed=13, sigma=1e-2, mu=0.3)
        rng = np.random.default_rng(5)
        for _ in range(5):
            x_hat = rng.dirichlet(np.ones(20))
            fstar = hull_fstar(data, x_hat)
            assert fstar <= hull_value(data, x_hat, precision=1e-12) + 1e-10

    def test_tight_on_small_problem(self):
        data = generate_scenarios(3, 2, 1.0, seed=14, sigma=0.5, mu=0.5)
        ts = np.linspace(0.0, 1.0, 2001)  # spacing 5e-4

        def value(j):
            return hull_value(data, np.array([ts[j], 1.0 - ts[j]]), precision=1e-12)
        # The hull objective is convex along the segment, so the minimum over
        # the fine grid lies between the neighbours of the best point of its
        # every-20th subgrid.
        coarse = range(0, ts.size, 20)
        c = min(coarse, key=value)
        fine = range(max(c - 20, 0), min(c + 20, ts.size - 1) + 1)
        values = {j: value(j) for j in fine}
        best = min(values, key=values.get)
        x_hat = np.array([ts[best], 1.0 - ts[best]])
        fstar = hull_fstar(data, x_hat)
        assert fstar <= values[best] + 1e-12
        assert values[best] - fstar <= 1e-5
