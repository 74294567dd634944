import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from witnesses import h_derivative

from tunable_oracle.cost_models import (
    CostModel,
    CostModelError,
    h_eval,
    lambert_w0,
)
from tunable_oracle.schedule_solver import ScheduleProblem, SolverError


POWER1 = CostModel("power", 1.0)
LOG = CostModel("logarithmic")
LOGSQ = CostModel("log_squared")


class TestEval:
    def test_power_reciprocal(self):
        assert h_eval(POWER1, 0.5) == pytest.approx(2.0)

    def test_log_identity(self):
        assert h_eval(LOG, math.exp(-1.0)) == pytest.approx(1.0)

    def test_logsq_square(self):
        assert h_eval(LOGSQ, math.exp(-2.0)) == pytest.approx(4.0)

    def test_vectorized(self):
        out = h_eval(POWER1, np.array([0.5, 0.25]))
        np.testing.assert_allclose(out, [2.0, 4.0])

    def test_rejects_out_of_domain(self):
        with pytest.raises(CostModelError):
            h_eval(POWER1, -1.0)
        with pytest.raises(CostModelError):
            h_eval(POWER1, 0.0)
        with pytest.raises(CostModelError):
            h_eval(LOG, math.inf)


class TestEvalPaths:
    """A Python or numpy float takes Python-float arithmetic, an array the
    numpy path; the noisy oracle's charges depend on the scalar path's bits."""

    KINDS = [CostModel("power", 0.5), POWER1, CostModel("power", 2.0), LOG, LOGSQ]

    @staticmethod
    def draws(seed):
        return 10.0 ** np.random.default_rng(seed).uniform(-12.0, 0.0, 2000)

    @pytest.mark.parametrize("scalar", [float, np.float64], ids=["float", "float64"])
    def test_scalar_keeps_the_python_float_bits(self, scalar):
        for d in map(float, self.draws(5)):
            for r in (0.5, 1.0, 2.0):
                assert h_eval(CostModel("power", r), scalar(d)) == d ** -r
            assert h_eval(LOG, scalar(d)) == -math.log(d)
            assert h_eval(LOGSQ, scalar(d)) == math.log(d) * math.log(d)
        assert type(h_eval(LOG, np.float64(0.5))) is float

    @pytest.mark.parametrize("model", KINDS, ids=lambda m: f"{m.kind}-{m.r}")
    def test_scalar_and_array_paths_agree_within_two_ulp(self, model):
        d = self.draws(6)
        array = h_eval(model, d)
        scalar = np.array([h_eval(model, float(x)) for x in d])
        assert np.all(np.abs(scalar - array) <= 2.0 * np.spacing(array))

    def test_power_overflow_is_inf_on_both_paths(self):
        model = CostModel("power", 3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert h_eval(model, 1e-200) == math.inf
            assert h_eval(model, np.float64(1e-200)) == math.inf
            assert h_eval(model, np.array([1e-200, 0.5])).tolist() == [math.inf, 8.0]

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("model", [POWER1, LOG, LOGSQ], ids=lambda m: m.kind)
    def test_rejects_out_of_domain_on_both_paths(self, model, bad):
        for delta in (bad, np.float64(bad), np.array([0.5, bad])):
            with pytest.raises(CostModelError, match="finite and > 0"):
                h_eval(model, delta)


class TestDerivative:
    def test_power(self):
        assert h_derivative(POWER1, 0.5) == pytest.approx(-4.0)

    def test_log(self):
        assert h_derivative(LOG, 0.5) == pytest.approx(-2.0)

    def test_logsq(self):
        # hand evaluation of 2 log(d)/d at d = 1/e
        assert h_derivative(LOGSQ, math.exp(-1.0)) == pytest.approx(-2.0 * math.e)

    def test_strictly_negative_interior(self):
        for model in (POWER1, LOG, LOGSQ):
            for d in (1e-6, 1e-3, 0.3, 0.85):
                assert h_derivative(model, d) < 0.0


class TestLambertW:
    def test_fixed_point(self):
        assert lambert_w0(0.0) == 0.0

    def test_at_e(self):
        assert lambert_w0(math.e) == pytest.approx(1.0, rel=1e-12)

    def test_at_one(self):
        assert lambert_w0(1.0) == pytest.approx(0.5671432904, rel=1e-9)

    def test_residuals(self):
        for x in (0.0, 1e-6, 1.0, 10.0, 1e6):
            w = lambert_w0(x)
            assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))
            assert w >= -1.0

    @pytest.mark.parametrize("x", [1e60, 1e200, 1.7e308])
    def test_converges_up_to_the_largest_doubles(self, x):
        # here rounding in w*exp(w) exceeds 1e-14 relative (past ~5e57) and
        # forming it can overflow near 1e308, so the iteration must not use it
        w = lambert_w0(x)
        assert abs(w + math.log(w) - math.log(x)) <= 1e-15 * w
        assert abs(w * math.exp(w) - x) <= 1e-13 * x
        np.testing.assert_allclose(lambert_w0(np.array([1.0, x])),
                                   [lambert_w0(1.0), w], rtol=1e-15)

    def test_each_element_is_its_own_scalar_call(self):
        # an element's result must not depend on the rest of its array
        rng = np.random.default_rng(3)
        x = np.concatenate([[0.0, 5e-324, 1e-310, 1.0, 1.7e308],
                            10.0 ** rng.uniform(-5.0, 300.0, 2000)])
        w = lambert_w0(x)
        assert w.tolist() == [lambert_w0(float(xi)) for xi in x]
        assert lambert_w0(x[::-1]).tolist() == w[::-1].tolist()

    def test_rejects_below_branch(self):
        with pytest.raises(CostModelError):
            lambert_w0(-0.1)

    def test_vectorized(self):
        xs = np.array([0.0, math.e, 1e3])
        ws = lambert_w0(xs)
        np.testing.assert_allclose(ws * np.exp(ws), xs, rtol=1e-12, atol=1e-14)


class TestLambertWGuess:
    """``lambert_w0(x, guess)``: Halley from the caller's start."""

    @staticmethod
    def draws(seed, n):
        # x over the range the log-squared solver meets, and a guess within 1
        # of the root on either side, kept >= 0
        rng = np.random.default_rng(seed)
        x = 10.0 ** rng.uniform(-5.0, 300.0, n)
        guess = np.maximum(lambert_w0(x) + rng.uniform(-1.0, 1.0, n), 0.0)
        return x, guess

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1.0, math.e, 1.7e308]),
                     st.floats(-5.0, 300.0).map(lambda e: 10.0 ** e)))
    def test_converged_guess_keeps_its_bits(self, x):
        w = lambert_w0(x)
        assert math.copysign(1.0, w) == 1.0
        assert lambert_w0(x, w) == w
        again = lambert_w0(np.array([x]), np.array([w]))
        assert again.tobytes() == np.array([w]).tobytes()

    def test_guess_within_one_of_the_root_matches_cold_call(self):
        x, guess = self.draws(11, 20_000)
        cold = lambert_w0(x)
        warm = lambert_w0(x, guess)
        assert np.max(np.abs(warm - cold) / cold) <= 4e-15

    def test_array_and_scalar_calls_agree(self):
        x, guess = self.draws(12, 500)
        warm = lambert_w0(x, guess.copy())
        assert warm.tolist() == [lambert_w0(float(xi), float(gi))
                                 for xi, gi in zip(x, guess)]

    def test_array_guess_iterates_in_place(self):
        x, guess = self.draws(13, 100)
        out = lambert_w0(x, guess)
        assert np.shares_memory(out, guess)
        assert guess.tobytes() == out.tobytes()

    def test_nan_guess_starts_cold(self):
        x, guess = self.draws(14, 1000)
        guess[::3] = math.nan
        warm = lambert_w0(x, guess)
        cold = lambert_w0(x)
        assert warm[::3].tobytes() == cold[::3].tobytes()
        assert lambert_w0(x, np.full_like(x, math.nan)).tobytes() == cold.tobytes()

    def test_guess_is_clamped(self):
        # below 0, and far above any root of a double: the stop test alone
        # would accept a start this large
        for x in (1e-3, 1.0, 10.0):
            for guess in (-5.0, 1e16, math.inf):
                assert lambert_w0(x, guess) == pytest.approx(lambert_w0(x), rel=4e-15)

    def test_far_guess_fails_loudly(self):
        # from far above the first step lands near 0, then each step climbs
        # about 2: W(1e100) ~ 225 is out of reach in 50 steps
        with pytest.raises(CostModelError, match="did not converge"):
            lambert_w0(1e100, 700.0)

    def test_guess_shape_must_match(self):
        with pytest.raises(CostModelError, match="shaped like x"):
            lambert_w0(np.ones(3), np.ones(2))


class TestDomainValidation:
    def test_log_kind_requires_hi_below_one(self):
        # the box belongs to the problem, which rejects M*delta_ref >= delta_max
        for model in (LOG, LOGSQ):
            for M in (2.0, 1.0):
                with pytest.raises(SolverError, match="M\\*delta_ref < 1"):
                    ScheduleProblem(np.ones(2), np.ones(2), 0.5, 0.0, 2.0 * M,
                                    model)

    def test_delta_max(self):
        # the largest delta each cost admits: the log costs reach 0 at 1
        assert POWER1.delta_max == math.inf
        assert LOG.delta_max == LOGSQ.delta_max == 1.0

    def test_power_requires_positive_r(self):
        with pytest.raises(CostModelError):
            CostModel("power", 0.0)
        with pytest.raises(CostModelError):
            CostModel("power", -1.0)
        with pytest.raises(CostModelError):
            CostModel("power", math.inf)

    def test_unknown_kind(self):
        with pytest.raises(CostModelError):
            CostModel(kind="exp")


@pytest.mark.parametrize("model", [CostModel("power", 2.0), LOG, LOGSQ])
@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=0.89),
       st.floats(min_value=1.0001, max_value=1.5))
def test_monotonicity(model, d1, factor):
    d2 = d1 * factor
    if d2 >= (10.0 if model.kind == "power" else 0.9):
        return
    assert h_eval(model, d1) > h_eval(model, d2)
    assert h_derivative(model, d1) < h_derivative(model, d2) < 0.0
